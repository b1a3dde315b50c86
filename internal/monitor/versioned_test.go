package monitor

import (
	"context"
	"testing"

	"repro/internal/master"
	"repro/internal/pattern"
	"repro/internal/relation"
	"repro/internal/rule"
)

// versionedFixture: R(A,B,C) with rules (A;MA)->(B;MB) and (A;MA)->(C;MC)
// over a master that initially only knows key "k1". Validating A lets
// TransFix cascade B and C — iff the master has the key.
func versionedFixture(t *testing.T) (*master.Versioned, *Monitor) {
	t.Helper()
	r := relation.StringSchema("R", "A", "B", "C")
	rm := relation.StringSchema("Rm", "MA", "MB", "MC")
	sigma := rule.MustNewSet(r, rm,
		rule.MustNew("fixB", r, rm, []int{0}, []int{0}, 1, 1, pattern.Empty()),
		rule.MustNew("fixC", r, rm, []int{0}, []int{0}, 2, 2, pattern.Empty()),
	)
	rel := relation.NewRelation(rm)
	rel.MustAppend(relation.StringTuple("k1", "b1", "c1"))
	ver := master.NewVersioned(master.MustNewForRules(rel, sigma))
	m, err := NewVersioned(sigma, ver, Config{})
	if err != nil {
		t.Fatal(err)
	}
	return ver, m
}

// TestVersionedMonitorPicksUpDeltas: a fix started after a master update
// uses the new snapshot (the k2 correction turns a fully-manual fix into
// a TransFix cascade), while the behavior before the update matches the
// master's old reach.
func TestVersionedMonitorPicksUpDeltas(t *testing.T) {
	ver, m := versionedFixture(t)
	input := relation.StringTuple("k2", "wrong", "wrong")
	truth := relation.StringTuple("k2", "b2", "c2")

	// Epoch 0: the master does not know k2 — the users assert everything.
	res, err := m.Fix(context.Background(), input, SimulatedUser{Truth: truth})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.AutoFixed.Len() != 0 {
		t.Fatalf("epoch 0: completed=%v autofixed=%v, want completed with no auto fixes",
			res.Completed, res.AutoFixed.Positions())
	}
	if !res.Tuple.Equal(truth) {
		t.Fatalf("epoch 0 result %v, want %v", res.Tuple, truth)
	}

	// Publish the correction; the next fix must cascade B and C.
	if _, err := ver.Apply([]relation.Tuple{relation.StringTuple("k2", "b2", "c2")}, nil); err != nil {
		t.Fatal(err)
	}
	res, err = m.Fix(context.Background(), input, SimulatedUser{Truth: truth})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.AutoFixed.Len() != 2 {
		t.Fatalf("epoch 1: completed=%v autofixed=%v, want B and C auto-fixed",
			res.Completed, res.AutoFixed.Positions())
	}
	if !res.Tuple.Equal(truth) {
		t.Fatalf("epoch 1 result %v, want %v", res.Tuple, truth)
	}
	if res.UserValidated.Len() != 1 || !res.UserValidated.Has(0) {
		t.Fatalf("epoch 1: users validated %v, want just A", res.UserValidated.Positions())
	}
}

// TestSessionPinsSnapshotAtStart: a session started before a master
// update keeps its pinned snapshot for its whole lifetime — the update
// cannot change the session's master view mid-flight.
func TestSessionPinsSnapshotAtStart(t *testing.T) {
	ver, m := versionedFixture(t)
	input := relation.StringTuple("k2", "wrong", "wrong")

	sess, err := m.NewSession(input)
	if err != nil {
		t.Fatal(err)
	}
	// The update lands between NewSession and the first round.
	if _, err := ver.Apply([]relation.Tuple{relation.StringTuple("k2", "b2", "c2")}, nil); err != nil {
		t.Fatal(err)
	}
	if err := sess.Provide([]int{0}, []relation.Value{relation.String("k2")}); err != nil {
		t.Fatal(err)
	}
	if got := sess.Result().AutoFixed.Len(); got != 0 {
		t.Fatalf("pinned session auto-fixed %d attrs from a snapshot published after it started", got)
	}

	// A session started now sees the new epoch.
	sess2, err := m.NewSession(input)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess2.Provide([]int{0}, []relation.Value{relation.String("k2")}); err != nil {
		t.Fatal(err)
	}
	if got := sess2.Result().AutoFixed.Len(); got != 2 {
		t.Fatalf("fresh session auto-fixed %d attrs, want 2", got)
	}
}

// TestVersionedFixBatchPicksUpEpochsBetweenTuples: each batch item pins
// the snapshot current at its session start, so items running after a
// publish see the new master while the batch as a whole never blocks.
func TestVersionedFixBatchPicksUpEpochsBetweenTuples(t *testing.T) {
	ver, m := versionedFixture(t)
	truth := relation.StringTuple("k2", "b2", "c2")

	// Sequential batch (1 worker): tuple 0's user callback publishes the
	// delta, so tuple 0 ran on epoch 0 and tuple 1 must run on epoch 1.
	inputs := []relation.Tuple{
		relation.StringTuple("k2", "wrong", "wrong"),
		relation.StringTuple("k2", "wrong", "wrong"),
	}
	users := []User{
		publishThenAssert{ver: ver, truth: truth, t: t},
		SimulatedUser{Truth: truth},
	}
	results, err := m.FixBatch(context.Background(), inputs, func(i int) User { return users[i] }, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := results[0].AutoFixed.Len(); got != 0 {
		t.Fatalf("tuple 0 (epoch 0 session) auto-fixed %d attrs, want 0", got)
	}
	if got := results[1].AutoFixed.Len(); got != 2 {
		t.Fatalf("tuple 1 (post-publish session) auto-fixed %d attrs, want 2", got)
	}
}

// publishThenAssert publishes a master delta from inside the first user
// round, then answers with the truth.
type publishThenAssert struct {
	ver   *master.Versioned
	truth relation.Tuple
	t     *testing.T
}

func (u publishThenAssert) Assert(_ relation.Tuple, suggested []int) ([]int, []relation.Value) {
	if _, err := u.ver.Apply([]relation.Tuple{u.truth.Clone()}, nil); err != nil {
		u.t.Errorf("publish from user callback: %v", err)
	}
	values := make([]relation.Value, len(suggested))
	for i, p := range suggested {
		values[i] = u.truth[p]
	}
	return suggested, values
}
