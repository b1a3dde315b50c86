package monitor_test

import (
	"context"
	"encoding/json"
	"errors"
	"testing"

	"repro/internal/master"
	"repro/internal/monitor"
	"repro/internal/paperex"
	"repro/internal/relation"
)

// truthT2 is the ground truth for t2: s1's address block given
// (type, AC, phn), the remainder as entered.
func truthT2() relation.Tuple {
	return relation.StringTuple(
		"Robert", "Brady", "131", "6884563", "1",
		"51 Elm Row", "Edi", "EH7 4AH", "CD")
}

func newVersionedMonitor(t *testing.T, cfg monitor.Config) (*monitor.Monitor, *master.Versioned) {
	t.Helper()
	sigma := paperex.Sigma0()
	ver := master.NewVersioned(master.MustNewForRules(paperex.MasterRelation(), sigma))
	m, err := monitor.NewVersioned(sigma, ver, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m, ver
}

// provideTruth answers the session's current suggestion from truth.
func provideTruth(t *testing.T, sess *monitor.Session, truth relation.Tuple) {
	t.Helper()
	attrs := sess.Suggested()
	values := make([]relation.Value, len(attrs))
	for i, p := range attrs {
		values[i] = truth[p]
	}
	if err := sess.Provide(attrs, values); err != nil {
		t.Fatal(err)
	}
}

// finish drives the session to completion with truth and returns the
// result.
func finish(t *testing.T, sess *monitor.Session, truth relation.Tuple) monitor.Result {
	t.Helper()
	for !sess.Done() {
		provideTruth(t, sess, truth)
	}
	return sess.Result()
}

// resultJSON canonicalizes a Result for byte-level comparison (attr sets
// and values marshal canonically regardless of backing layout).
func resultJSON(t *testing.T, r monitor.Result) string {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestSessionStateRoundTrip: a session serialized after round 1 and
// resumed on a *different* monitor over the same (Σ, Dm) finishes with a
// Result byte-identical to the uninterrupted run — for a master-backed
// multi-round fix (t2) and a fresh-entity fix (t4).
func TestSessionStateRoundTrip(t *testing.T) {
	cases := []struct {
		name  string
		input relation.Tuple
		truth relation.Tuple
	}{
		{"t2-master-backed", paperex.InputT2(), truthT2()},
		{"t4-fresh-entity", paperex.InputT4(), paperex.InputT4()},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m1 := newMonitor(t, monitor.Config{})
			want, err := m1.Fix(context.Background(), c.input, monitor.SimulatedUser{Truth: c.truth})
			if err != nil {
				t.Fatal(err)
			}
			if want.Rounds < 2 {
				t.Fatalf("fixture must need ≥ 2 rounds to exercise suspension, got %d", want.Rounds)
			}

			sess, err := m1.NewSession(c.input)
			if err != nil {
				t.Fatal(err)
			}
			provideTruth(t, sess, c.truth)

			// Suspend: state → JSON → fresh monitor in a "different
			// process" (same rules, same master relation).
			blob, err := json.Marshal(sess.State())
			if err != nil {
				t.Fatal(err)
			}
			var st monitor.SessionState
			if err := json.Unmarshal(blob, &st); err != nil {
				t.Fatal(err)
			}
			m2 := newMonitor(t, monitor.Config{})
			resumed, err := m2.ResumeSession(&st, monitor.ResumeOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if resumed.Rounds() != 1 {
				t.Fatalf("resumed rounds = %d, want 1", resumed.Rounds())
			}
			got := finish(t, resumed, c.truth)
			if resultJSON(t, got) != resultJSON(t, want) {
				t.Fatalf("resumed result differs from uninterrupted run:\n got  %s\n want %s",
					resultJSON(t, got), resultJSON(t, want))
			}
		})
	}
}

// TestSessionResumeRePinsEpoch: a session suspended at epoch e keeps
// observing epoch e after resume even when the master head has moved on
// — the resumed run is byte-identical to an uninterrupted run that saw
// only epoch e.
func TestSessionResumeRePinsEpoch(t *testing.T) {
	m, ver := newVersionedMonitor(t, monitor.Config{})
	input, truth := paperex.InputT2(), truthT2()

	want, err := m.Fix(context.Background(), input, monitor.SimulatedUser{Truth: truth})
	if err != nil {
		t.Fatal(err)
	}

	sess, err := m.NewSession(input)
	if err != nil {
		t.Fatal(err)
	}
	e0 := sess.Epoch()
	provideTruth(t, sess, truth)
	blob, err := json.Marshal(sess.State())
	if err != nil {
		t.Fatal(err)
	}

	// The master moves on underneath the suspended session: every master
	// tuple is deleted, so a session observing the head would behave
	// completely differently.
	if _, err := ver.Apply(nil, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	if ver.Current().Len() != 0 {
		t.Fatalf("head |Dm| = %d, want 0", ver.Current().Len())
	}

	var st monitor.SessionState
	if err := json.Unmarshal(blob, &st); err != nil {
		t.Fatal(err)
	}
	resumed, err := m.ResumeSession(&st, monitor.ResumeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Epoch() != e0 {
		t.Fatalf("resumed epoch = %d, want the original %d", resumed.Epoch(), e0)
	}
	got := finish(t, resumed, truth)
	if resultJSON(t, got) != resultJSON(t, want) {
		t.Fatalf("resume under concurrent update diverged:\n got  %s\n want %s",
			resultJSON(t, got), resultJSON(t, want))
	}
}

// TestSessionResumeEvictedEpoch: when the ring no longer retains the
// session's epoch, resume fails with ErrEpochEvicted — and the
// RebaseToHead escape hatch re-pins the head instead.
func TestSessionResumeEvictedEpoch(t *testing.T) {
	m, ver := newVersionedMonitor(t, monitor.Config{})
	ver.SetHistory(1)
	input, truth := paperex.InputT2(), truthT2()

	sess, err := m.NewSession(input)
	if err != nil {
		t.Fatal(err)
	}
	provideTruth(t, sess, truth)
	st := sess.State()

	if _, err := ver.Apply([]relation.Tuple{relation.StringTuple(
		"Jane", "Doe", "999", "5551234", "070000000",
		"1 Test St", "Tst", "ZZ1 1ZZ", "01/01/70", "F")}, nil); err != nil {
		t.Fatal(err)
	}

	if _, err := m.ResumeSession(st, monitor.ResumeOptions{}); !errors.Is(err, master.ErrEpochEvicted) {
		t.Fatalf("resume after eviction = %v, want ErrEpochEvicted", err)
	}

	resumed, err := m.ResumeSession(st, monitor.ResumeOptions{RebaseToHead: true})
	if err != nil {
		t.Fatalf("rebase-to-head resume: %v", err)
	}
	if resumed.Epoch() != ver.Epoch() {
		t.Fatalf("rebased epoch = %d, want head %d", resumed.Epoch(), ver.Epoch())
	}
	res := finish(t, resumed, truth)
	if !res.Completed {
		t.Fatal("rebased session must still complete")
	}
	if !res.Tuple.Equal(truth) {
		t.Fatalf("rebased fix %v != truth %v", res.Tuple, truth)
	}
}

// TestSessionStateAbortAndDone: an aborted session's state round-trips —
// the resumed session is done, incomplete, and rejects further rounds
// with ErrSessionDone.
func TestSessionStateAbortAndDone(t *testing.T) {
	m := newMonitor(t, monitor.Config{})
	sess, err := m.NewSession(paperex.InputT1())
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Provide(nil, nil); err != nil { // the users decline
		t.Fatal(err)
	}
	if !sess.Done() {
		t.Fatal("abort must finish the session")
	}
	if sess.Result().Completed {
		t.Fatal("abort must not report completion")
	}

	resumed, err := m.ResumeSession(sess.State(), monitor.ResumeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !resumed.Done() || resumed.Result().Completed {
		t.Fatal("aborted state must resume as done and incomplete")
	}
	err = resumed.Provide([]int{0}, []relation.Value{relation.Null})
	if !errors.Is(err, monitor.ErrSessionDone) {
		t.Fatalf("Provide on resumed done session = %v, want ErrSessionDone", err)
	}
}

// TestSessionMaxRoundsCap: the round cap finishes the session incomplete
// — directly and across a suspend/resume boundary (the cap travels in
// the state).
func TestSessionMaxRoundsCap(t *testing.T) {
	m := newMonitor(t, monitor.Config{MaxRounds: 1})
	sess, err := m.NewSession(paperex.InputT4())
	if err != nil {
		t.Fatal(err)
	}
	provideTruth(t, sess, paperex.InputT4())
	if !sess.Done() {
		t.Fatal("MaxRounds=1 must finish after one round")
	}
	if res := sess.Result(); res.Completed {
		t.Fatal("t4 cannot complete in one round; the cap must cut it off incomplete")
	}

	// The cap is session state, not monitor config: resuming on a
	// monitor with a laxer default keeps the original cap.
	m2, err2 := monitor.New(paperex.Sigma0(),
		master.MustNewForRules(paperex.MasterRelation(), paperex.Sigma0()),
		monitor.Config{MaxRounds: 2})
	if err2 != nil {
		t.Fatal(err2)
	}
	capped, err := m2.NewSession(paperex.InputT4())
	if err != nil {
		t.Fatal(err)
	}
	provideTruth(t, capped, paperex.InputT4())
	st := capped.State()
	if st.MaxRounds != 2 {
		t.Fatalf("state MaxRounds = %d", st.MaxRounds)
	}
	resumed, err := m.ResumeSession(st, monitor.ResumeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	provideTruth(t, resumed, paperex.InputT4())
	if !resumed.Done() || resumed.Rounds() != 2 {
		t.Fatalf("resumed session must honor its own cap: done=%v rounds=%d",
			resumed.Done(), resumed.Rounds())
	}
}

// TestResumeSessionValidation: malformed states are rejected with
// ErrBadState (and ErrArityMismatch where the shape is wrong).
func TestResumeSessionValidation(t *testing.T) {
	m := newMonitor(t, monitor.Config{})
	sess, err := m.NewSession(paperex.InputT1())
	if err != nil {
		t.Fatal(err)
	}
	good := sess.State()

	if _, err := m.ResumeSession(nil, monitor.ResumeOptions{}); !errors.Is(err, monitor.ErrBadState) {
		t.Fatalf("nil state = %v", err)
	}

	bad := *good
	bad.Version = 99
	if _, err := m.ResumeSession(&bad, monitor.ResumeOptions{}); !errors.Is(err, monitor.ErrBadState) {
		t.Fatalf("unknown version = %v", err)
	}

	bad = *good
	bad.Tuple = relation.StringTuple("short")
	_, err = m.ResumeSession(&bad, monitor.ResumeOptions{})
	if !errors.Is(err, monitor.ErrBadState) || !errors.Is(err, monitor.ErrArityMismatch) {
		t.Fatalf("short tuple = %v, want ErrBadState and ErrArityMismatch", err)
	}

	bad = *good
	bad.Suggested = []int{99}
	if _, err := m.ResumeSession(&bad, monitor.ResumeOptions{}); !errors.Is(err, monitor.ErrBadState) {
		t.Fatalf("out-of-range suggestion = %v", err)
	}

	bad = *good
	bad.Z = relation.NewAttrSet(64)
	if _, err := m.ResumeSession(&bad, monitor.ResumeOptions{}); !errors.Is(err, monitor.ErrBadState) {
		t.Fatalf("out-of-range z = %v", err)
	}

	bad = *good
	bad.Rounds = -1
	if _, err := m.ResumeSession(&bad, monitor.ResumeOptions{}); !errors.Is(err, monitor.ErrBadState) {
		t.Fatalf("negative rounds = %v", err)
	}
}

// TestSessionTypedErrors: the session sentinels are observable through
// errors.Is on the ordinary entry points.
func TestSessionTypedErrors(t *testing.T) {
	m := newMonitor(t, monitor.Config{})
	if _, err := m.NewSession(relation.StringTuple("short")); !errors.Is(err, monitor.ErrArityMismatch) {
		t.Fatalf("NewSession short = %v, want ErrArityMismatch", err)
	}
	sess, err := m.NewSession(paperex.InputT1())
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Provide([]int{0, 1}, []relation.Value{relation.Null}); !errors.Is(err, monitor.ErrArityMismatch) {
		t.Fatalf("misaligned Provide = %v, want ErrArityMismatch", err)
	}
	if err := sess.Provide([]int{99}, []relation.Value{relation.Null}); !errors.Is(err, monitor.ErrArityMismatch) {
		t.Fatalf("out-of-range Provide = %v, want ErrArityMismatch", err)
	}
}

// TestProvideFailureLeavesSessionUntouched: a rejected Provide must not
// half-apply assertions — long-lived sessions retry after input errors.
func TestProvideFailureLeavesSessionUntouched(t *testing.T) {
	m := newMonitor(t, monitor.Config{})
	sess, err := m.NewSession(paperex.InputT1())
	if err != nil {
		t.Fatal(err)
	}
	before := sess.Tuple()
	err = sess.Provide([]int{0, 99}, []relation.Value{relation.String("phantom"), relation.Null})
	if !errors.Is(err, monitor.ErrArityMismatch) {
		t.Fatalf("err = %v", err)
	}
	if sess.Rounds() != 0 || sess.Validated().Len() != 0 {
		t.Fatalf("failed Provide mutated the session: rounds=%d validated=%v",
			sess.Rounds(), sess.Validated().Positions())
	}
	if !sess.Tuple().Equal(before) {
		t.Fatalf("failed Provide mutated the tuple: %v", sess.Tuple())
	}
	if res := sess.Result(); res.UserValidated.Len() != 0 {
		t.Fatalf("phantom user validation leaked into Result: %v", res.UserValidated.Positions())
	}
}

// TestResumeMissingCapUsesMonitorConfig: a token without a round cap
// falls back to the resuming monitor's configured MaxRounds, not the
// arity default.
func TestResumeMissingCapUsesMonitorConfig(t *testing.T) {
	m := newMonitor(t, monitor.Config{MaxRounds: 1})
	sess, err := m.NewSession(paperex.InputT4())
	if err != nil {
		t.Fatal(err)
	}
	st := sess.State()
	st.MaxRounds = 0 // a hand-built token omitting the field
	resumed, err := m.ResumeSession(st, monitor.ResumeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	provideTruth(t, resumed, paperex.InputT4())
	if !resumed.Done() || resumed.Result().Completed {
		t.Fatalf("configured cap must apply: done=%v rounds=%d", resumed.Done(), resumed.Rounds())
	}
}
