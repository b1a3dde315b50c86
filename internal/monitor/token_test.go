package monitor_test

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/master"
	"repro/internal/monitor"
	"repro/internal/paperex"
	"repro/internal/relation"
	"repro/internal/rule"
)

// truthT2 is the ground truth for t2: s1's address block given
// (type, AC, phn), the remainder as entered.
func truthT2() relation.Tuple {
	return relation.StringTuple(
		"Robert", "Brady", "131", "6884563", "1",
		"51 Elm Row", "Edi", "EH7 4AH", "CD")
}

// sharedKey is the token key of monitors that stand for replicas of one
// service in these tests.
var sharedKey = []byte("monitor-test-token-key")

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

// suspend takes the session's token.
func suspend(t *testing.T, sess *monitor.Session) []byte {
	t.Helper()
	token, err := sess.AppendToken(nil)
	if err != nil {
		t.Fatal(err)
	}
	return token
}

// TestSessionStateRoundTrip: a session suspended after round 1 and
// resumed on a *different* monitor over the same (Σ, Dm) and token key
// finishes with a Result deeply equal to the uninterrupted run — for a
// master-backed multi-round fix (t2) and a fresh-entity fix (t4).
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
			m1 := newMonitor(t, monitor.Config{TokenKey: sharedKey})
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

			// Suspend: token → fresh monitor in a "different process"
			// (same rules, same master relation, same key).
			m2 := newMonitor(t, monitor.Config{TokenKey: sharedKey})
			resumed, err := m2.ResumeSession(suspend(t, sess), monitor.ResumeOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if resumed.Rounds() != 1 {
				t.Fatalf("resumed rounds = %d, want 1", resumed.Rounds())
			}
			if got := finish(t, resumed, c.truth); !reflect.DeepEqual(got, want) {
				t.Fatalf("resumed result differs from uninterrupted run:\n got  %+v\n want %+v", got, want)
			}
		})
	}
}

// TestSessionResumeRePinsEpoch: a session suspended at epoch e keeps
// observing epoch e after resume even when the master head has moved on
// — the resumed run is identical to an uninterrupted run that saw only
// epoch e.
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
	token := suspend(t, sess)

	// The master moves on underneath the suspended session: every master
	// tuple is deleted, so a session observing the head would behave
	// completely differently.
	if _, err := ver.Apply(nil, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	if ver.Current().Len() != 0 {
		t.Fatalf("head |Dm| = %d, want 0", ver.Current().Len())
	}

	resumed, err := m.ResumeSession(token, monitor.ResumeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Epoch() != e0 {
		t.Fatalf("resumed epoch = %d, want the original %d", resumed.Epoch(), e0)
	}
	if got := finish(t, resumed, truth); !reflect.DeepEqual(got, want) {
		t.Fatalf("resume under concurrent update diverged:\n got  %+v\n want %+v", got, want)
	}
}

// TestSessionResumeEvictedEpoch: when the ring no longer retains the
// session's epoch, resume fails with ErrEpochEvicted — and the
// RebaseToHead escape hatch re-pins the head instead. Neither path is
// reached by a token whose tag does not verify.
func TestSessionResumeEvictedEpoch(t *testing.T) {
	m, ver := newVersionedMonitor(t, monitor.Config{})
	ver.SetHistory(1)
	input, truth := paperex.InputT2(), truthT2()

	sess, err := m.NewSession(input)
	if err != nil {
		t.Fatal(err)
	}
	provideTruth(t, sess, truth)
	token := suspend(t, sess)

	if _, err := ver.Apply([]relation.Tuple{relation.StringTuple(
		"Jane", "Doe", "999", "5551234", "070000000",
		"1 Test St", "Tst", "ZZ1 1ZZ", "01/01/70", "F")}, nil); err != nil {
		t.Fatal(err)
	}

	if _, err := m.ResumeSession(token, monitor.ResumeOptions{}); !errors.Is(err, master.ErrEpochEvicted) {
		t.Fatalf("resume after eviction = %v, want ErrEpochEvicted", err)
	}
	forged := append([]byte(nil), token...)
	forged[len(forged)/2] ^= 1
	for _, opt := range []monitor.ResumeOptions{{}, {RebaseToHead: true}} {
		if _, err := m.ResumeSession(forged, opt); !errors.Is(err, monitor.ErrBadToken) {
			t.Fatalf("forged token on an evicted epoch (%+v) = %v, want ErrBadToken", opt, err)
		}
	}

	resumed, err := m.ResumeSession(token, monitor.ResumeOptions{RebaseToHead: true})
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

// witnessS2Input is Mark Smith of master tuple s2, entered with his
// address missing, and the truth his fix must reach: (AC, phn, type)
// point at s2 alone.
func witnessS2Input() (input, truth relation.Tuple) {
	truth = relation.StringTuple(
		"Mark", "Smith", "020", "6884563", "1",
		"20 Baker St.", "Lnd", "NW1 6XE", "CD")
	input = truth.Clone()
	input[5], input[6], input[7] = relation.Null, relation.Null, relation.Null
	return input, truth
}

// checkProvenance fails unless every auto-fixed attribute of res has one
// witness whose master tuple matches its rule's premise on res.Tuple and
// supplies the fixed value — what certainfix.VerifyFix checks short of
// the Merkle proof.
func checkProvenance(t *testing.T, res monitor.Result) {
	t.Helper()
	if len(res.Provenance) != res.AutoFixed.Len() {
		t.Fatalf("%d witnesses for %d auto-fixed attributes", len(res.Provenance), res.AutoFixed.Len())
	}
	for _, w := range res.Provenance {
		var ru *rule.Rule
		for _, r := range paperex.Sigma0().Rules() {
			if r.Name() == w.Rule {
				ru = r
			}
		}
		if ru == nil || ru.RHS() != w.Attr || !res.AutoFixed.Has(w.Attr) {
			t.Fatalf("witness %+v names no rule fixing an auto-fixed attribute", w)
		}
		x, xm := ru.LHS(), ru.LHSM()
		for i := range x {
			if !res.Tuple[x[i]].Equal(w.Master[xm[i]]) {
				t.Fatalf("attribute %d: premise attribute %d does not match master tuple %d %v", w.Attr, x[i], w.MasterID, w.Master)
			}
		}
		if !res.Tuple[w.Attr].Equal(w.Master[ru.RHSM()]) {
			t.Fatalf("attribute %d: fixed value is not master tuple %d's", w.Attr, w.MasterID)
		}
	}
}

// TestRebaseRederivesProvenance: a session whose first round took every
// fix from one master tuple — the only one supporting them — is suspended;
// a delete then removes a master tuple (a swap-remove: the last tuple
// takes the deleted id) and evicts the epoch. Resumed with RebaseToHead,
// the session's provenance must be the head's: every witness justifies
// its fix. Deleting s1 itself leaves its id naming s2, whose premise does
// not match; deleting s1 under a fix from s2 leaves a witness id beyond
// the head's one tuple, which must still resume.
func TestRebaseRederivesProvenance(t *testing.T) {
	t2Input, t2Truth := paperex.InputT2(), truthT2()
	s2Input, s2Truth := witnessS2Input()
	cases := []struct {
		name         string
		input, truth relation.Tuple
		witness      int // the master id round 1 fixes from
	}{
		{"witness id now names another tuple", t2Input, t2Truth, 0},
		{"witness id beyond the head", s2Input, s2Truth, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m, ver := newVersionedMonitor(t, monitor.Config{})
			ver.SetHistory(1)
			sess, err := m.NewSession(c.input)
			if err != nil {
				t.Fatal(err)
			}
			provideTruth(t, sess, c.truth)
			before := sess.Result()
			if len(before.Provenance) == 0 {
				t.Fatal("round 1 fixed nothing: no provenance to rebase")
			}
			for _, w := range before.Provenance {
				if w.MasterID != c.witness {
					t.Fatalf("round 1 witness %+v, fixture wants master id %d only", w, c.witness)
				}
			}
			token := suspend(t, sess)

			if _, err := ver.Apply(nil, []int{0}); err != nil {
				t.Fatal(err)
			}
			if _, s2 := paperex.MasterTuples(); ver.Current().Len() != 1 || !ver.Current().Tuple(0).Equal(s2) {
				t.Fatalf("after deleting s1 the head must be {s2} at id 0")
			}
			if _, err := m.ResumeSession(token, monitor.ResumeOptions{}); !errors.Is(err, master.ErrEpochEvicted) {
				t.Fatalf("resume after eviction = %v, want ErrEpochEvicted", err)
			}
			resumed, err := m.ResumeSession(token, monitor.ResumeOptions{RebaseToHead: true})
			if err != nil {
				t.Fatalf("rebase-to-head resume of a legitimate token: %v", err)
			}
			res := finish(t, resumed, c.truth)
			if !res.Completed || !res.Tuple.Equal(c.truth) || res.Epoch != ver.Epoch() {
				t.Fatalf("rebased fix %v (completed %v, epoch %d), truth %v at head %d", res.Tuple, res.Completed, res.Epoch, c.truth, ver.Epoch())
			}
			checkProvenance(t, res)
		})
	}
}

// TestSessionResumeEpochAhead: a token minted at an epoch this monitor's
// lineage has not reached — the leader's, on a follower one delta behind —
// is "not yet", never "evicted": the resume fails with ErrEpochAhead,
// RebaseToHead does not trade it for the older head (a rebase only moves a
// session forward), and once the delta has arrived the same token resumes
// on its own epoch.
func TestSessionResumeEpochAhead(t *testing.T) {
	cfg := monitor.Config{TokenKey: []byte("one key for leader and follower")}
	leader, leaderVer := newVersionedMonitor(t, cfg)
	follower, followerVer := newVersionedMonitor(t, cfg)
	delta := []relation.Tuple{relation.StringTuple(
		"Jane", "Doe", "999", "5551234", "070000000",
		"1 Test St", "Tst", "ZZ1 1ZZ", "01/01/70", "F")}
	if _, err := leaderVer.Apply(delta, nil); err != nil {
		t.Fatal(err)
	}

	input, truth := paperex.InputT2(), truthT2()
	sess, err := leader.NewSession(input)
	if err != nil {
		t.Fatal(err)
	}
	provideTruth(t, sess, truth)
	token := suspend(t, sess)
	if sess.Epoch() <= followerVer.Epoch() {
		t.Fatalf("leader session at epoch %d, follower head %d: nothing is ahead", sess.Epoch(), followerVer.Epoch())
	}

	for _, opt := range []monitor.ResumeOptions{{}, {RebaseToHead: true}} {
		_, err := follower.ResumeSession(token, opt)
		if !errors.Is(err, master.ErrEpochAhead) || errors.Is(err, master.ErrEpochEvicted) {
			t.Fatalf("resume ahead of the head (%+v) = %v, want ErrEpochAhead only", opt, err)
		}
	}

	if _, err := followerVer.Apply(delta, nil); err != nil {
		t.Fatal(err)
	}
	resumed, err := follower.ResumeSession(token, monitor.ResumeOptions{})
	if err != nil {
		t.Fatalf("resume once the follower caught up: %v", err)
	}
	if resumed.Epoch() != sess.Epoch() {
		t.Fatalf("resumed at epoch %d, token minted at %d", resumed.Epoch(), sess.Epoch())
	}
	if res := finish(t, resumed, truth); !res.Completed || !res.Tuple.Equal(truth) {
		t.Fatalf("caught-up follower fixed %v (completed %v), truth %v", res.Tuple, res.Completed, truth)
	}
}

// TestSessionStateAbortAndDone: an aborted session's token round-trips —
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

	resumed, err := m.ResumeSession(suspend(t, sess), monitor.ResumeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !resumed.Done() || resumed.Result().Completed {
		t.Fatal("aborted state must resume as done and incomplete")
	}
	if got, want := resumed.Result(), sess.Result(); !reflect.DeepEqual(got, want) {
		t.Fatalf("a session with no rounds changed across resume:\n got  %+v\n want %+v", got, want)
	}
	err = resumed.Provide([]int{0}, []relation.Value{relation.Null})
	if !errors.Is(err, monitor.ErrSessionDone) {
		t.Fatalf("Provide on resumed done session = %v, want ErrSessionDone", err)
	}
}

// TestSessionMaxRoundsCap: the round cap finishes a Provide-driven
// session incomplete after arity + 1 rounds — directly, and across a
// suspend/resume boundary, where a token sealed at the cap resumes done.
func TestSessionMaxRoundsCap(t *testing.T) {
	m := newMonitor(t, monitor.Config{TokenKey: sharedKey})
	input := paperex.InputT4()
	want := len(input) + 1
	sess, err := m.NewSession(input)
	if err != nil {
		t.Fatal(err)
	}
	for !sess.Done() {
		if sess.Rounds() == want {
			t.Fatalf("session still open after %d rounds", want)
		}
		attrs, values := reasserter{}.Assert(sess.Tuple(), sess.Suggested())
		if err := sess.Provide(attrs, values); err != nil {
			t.Fatal(err)
		}
	}
	if res := sess.Result(); res.Rounds != want || res.Completed {
		t.Fatalf("rounds=%d completed=%v, want %d rounds, incomplete", res.Rounds, res.Completed, want)
	}
	if err := sess.Provide([]int{0}, []relation.Value{input[0]}); !errors.Is(err, monitor.ErrSessionDone) {
		t.Fatalf("Provide past the cap = %v, want ErrSessionDone", err)
	}

	// Resumed on another monitor of the same service, the capped session
	// is done on arrival and still refuses a further round.
	other := newMonitor(t, monitor.Config{TokenKey: sharedKey})
	resumed, err := other.ResumeSession(suspend(t, sess), monitor.ResumeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !resumed.Done() || resumed.Rounds() != want || resumed.Result().Completed {
		t.Fatalf("resumed at the cap: done=%v rounds=%d", resumed.Done(), resumed.Rounds())
	}
	if err := resumed.Provide([]int{0}, []relation.Value{input[0]}); !errors.Is(err, monitor.ErrSessionDone) {
		t.Fatalf("Provide on resumed capped session = %v, want ErrSessionDone", err)
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

// TestResumeMissingCapUsesMonitorConfig: a token carries no round cap,
// so a resumed session runs under the resuming monitor's, which is
// arity + 1 whatever that monitor's Config holds. A session handed
// between differently configured monitors at every round boundary stops
// at exactly that cap, incomplete.
func TestResumeMissingCapUsesMonitorConfig(t *testing.T) {
	monitors := []*monitor.Monitor{
		newMonitor(t, monitor.Config{TokenKey: sharedKey}),
		newMonitor(t, monitor.Config{UseBDD: true, TokenKey: sharedKey}),
	}
	input := paperex.InputT4()
	want := len(input) + 1
	sess, err := monitors[0].NewSession(input)
	if err != nil {
		t.Fatal(err)
	}
	for hop := 1; !sess.Done(); hop++ {
		if sess.Rounds() == want {
			t.Fatalf("session still open after %d rounds", want)
		}
		attrs, values := reasserter{}.Assert(sess.Tuple(), sess.Suggested())
		if err := sess.Provide(attrs, values); err != nil {
			t.Fatal(err)
		}
		sess, err = monitors[hop%len(monitors)].ResumeSession(suspend(t, sess), monitor.ResumeOptions{})
		if err != nil {
			t.Fatal(err)
		}
	}
	if res := sess.Result(); res.Rounds != want || res.Completed {
		t.Fatalf("rounds=%d completed=%v, want %d rounds, incomplete", res.Rounds, res.Completed, want)
	}
}

// TestSessionsAreCertainFixOnCertainFixPlus: CertainFix+ belongs to the
// callback driver, never to a session. On a UseBDD monitor, sessions begun
// with NewSession and driven by Provide — uninterrupted, or suspended and
// resumed from their own token before every round — never touch the BDD
// cache, and each asks the same suggestion every round, takes the same
// rounds and ends on the same Result as the session on a plain monitor.
func TestSessionsAreCertainFixOnCertainFixPlus(t *testing.T) {
	ds := hospDataset(t, 40)
	plus, err := monitor.New(ds.Sigma, ds.Master, monitor.Config{UseBDD: true, TokenKey: sharedKey})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := monitor.New(ds.Sigma, ds.Master, monitor.Config{TokenKey: sharedKey})
	if err != nil {
		t.Fatal(err)
	}
	type trace struct {
		suggested [][]int
		res       monitor.Result
	}
	// drive answers every suggestion from truth; with resume set, the
	// session is rebuilt from its token at every round boundary.
	drive := func(m *monitor.Monitor, input, truth relation.Tuple, resume bool) trace {
		sess, err := m.NewSession(input)
		if err != nil {
			t.Fatal(err)
		}
		var tr trace
		for {
			if resume {
				if sess, err = m.ResumeSession(suspend(t, sess), monitor.ResumeOptions{}); err != nil {
					t.Fatal(err)
				}
			}
			if sess.Done() {
				break
			}
			tr.suggested = append(tr.suggested, sess.Suggested())
			provideTruth(t, sess, truth)
		}
		tr.res = sess.Result()
		return tr
	}
	multiRound := 0
	for i, input := range ds.Inputs {
		want := drive(plain, input, ds.Truths[i], false)
		if want.res.Rounds > 1 {
			multiRound++
		}
		for _, resume := range []bool{false, true} {
			if got := drive(plus, input, ds.Truths[i], resume); !reflect.DeepEqual(got, want) {
				t.Fatalf("input %d (resumed every round: %v): the CertainFix+ monitor's session differs from the plain one's:\n got  %+v\n want %+v", i, resume, got, want)
			}
		}
	}
	if multiRound == 0 {
		t.Fatal("no input took more than one round: nothing for the cache to diverge on")
	}
	if hits, misses := plus.CacheStats(); hits != 0 || misses != 0 {
		t.Fatalf("sessions walked the suggestion cache: %d hits, %d misses", hits, misses)
	}
	// The same stream through the callback driver is CertainFix+.
	for i, input := range ds.Inputs {
		if _, err := plus.Fix(context.Background(), input, monitor.SimulatedUser{Truth: ds.Truths[i]}); err != nil {
			t.Fatal(err)
		}
	}
	if hits, _ := plus.CacheStats(); hits == 0 {
		t.Fatal("Fix on a UseBDD monitor never hit the suggestion cache")
	}
}
