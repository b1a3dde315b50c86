package certainfix_test

// The WithWAL surface: a System's master lineage survives a restart —
// epochs, tuples, fix behaviour, and suspended session tokens — and
// corruption surfaces as the re-exported typed errors.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/paperex"
	"repro/pkg/certainfix"
)

// durableFixture builds the order/catalog system of update_test.go on a
// durable lineage rooted at dir.
func durableFixture(t *testing.T, dir string, withMaster bool) *certainfix.System {
	t.Helper()
	r := certainfix.StringSchema("order", "sku", "price", "desc")
	rm := certainfix.StringSchema("catalog", "sku", "price", "desc")
	rules, err := certainfix.ParseRules(r, rm, `
rule price: (sku ; sku) -> (price ; price)
rule desc:  (sku ; sku) -> (desc ; desc)
`)
	if err != nil {
		t.Fatal(err)
	}
	var masterRel *certainfix.Relation
	if withMaster {
		masterRel = certainfix.NewRelation(rm)
		if err := masterRel.Append(certainfix.StringTuple("sku-1", "9.99", "widget")); err != nil {
			t.Fatal(err)
		}
	}
	sys, err := certainfix.New(rules, masterRel, certainfix.WithWAL(dir))
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestWALLineageSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	sys := durableFixture(t, dir, true)
	for i := 2; i <= 6; i++ {
		sku := fmt.Sprintf("sku-%d", i)
		if _, err := sys.UpdateMaster([]certainfix.Tuple{
			certainfix.StringTuple(sku, fmt.Sprintf("%d.50", i), "item-"+sku),
		}, nil); err != nil {
			t.Fatal(err)
		}
	}
	wantEpoch, wantLen := sys.MasterEpoch(), sys.MasterLen()
	if st, ok := sys.Durability(); !ok || st.Epoch != wantEpoch {
		t.Fatalf("durability stats: %+v ok=%v", st, ok)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	// Closed lineage refuses further updates; reads keep working.
	if _, err := sys.UpdateMaster(nil, []int{0}); err == nil {
		t.Fatal("UpdateMaster after Close succeeded")
	}
	if sys.MasterLen() != wantLen {
		t.Fatal("reads broke after Close")
	}

	// Restart with NO master relation: the WAL directory is authoritative.
	sys2 := durableFixture(t, dir, false)
	defer sys2.Close()
	if sys2.MasterEpoch() != wantEpoch || sys2.MasterLen() != wantLen {
		t.Fatalf("recovered epoch %d |Dm| %d, want %d and %d",
			sys2.MasterEpoch(), sys2.MasterLen(), wantEpoch, wantLen)
	}
	st, ok := sys2.Durability()
	if !ok || !st.Recovery.UsedCheckpoint {
		t.Fatalf("recovery did not use the checkpoint: %+v", st)
	}
	// The recovered master actually serves fixes for a replayed tuple.
	fixed, _, changed, err := sys2.RepairOnce(certainfix.StringTuple("sku-4", "0.00", "junk"), []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if len(changed) != 2 || fixed[1].Str() != "4.50" {
		t.Fatalf("recovered master repaired %v -> %v", changed, fixed)
	}
	// And the lineage continues past the restart.
	if epoch, err := sys2.UpdateMaster(nil, []int{0}); err != nil || epoch != wantEpoch+1 {
		t.Fatalf("continue after restart: epoch %d err %v", epoch, err)
	}
}

// TestWALFreshDirWithoutMaster pins the error contract: an empty WAL
// directory plus a nil master relation cannot seed a lineage.
func TestWALFreshDirWithoutMaster(t *testing.T) {
	r := certainfix.StringSchema("order", "sku", "price")
	rm := certainfix.StringSchema("catalog", "sku", "price")
	rules, err := certainfix.ParseRules(r, rm, `rule s: (sku ; sku) -> (price ; price)`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := certainfix.New(rules, nil, certainfix.WithWAL(t.TempDir())); err == nil {
		t.Fatal("New with neither master nor checkpoint succeeded")
	}
}

// TestSessionTokenSpansRestart is satellite coverage for the ring under
// recovery: a session suspended before a restart resumes in the NEXT
// process, re-pins its original epoch (recovered from checkpoint+WAL),
// resolves its references against the recovered symbol table, and
// finishes with the same result as an uninterrupted run.
func TestSessionTokenSpansRestart(t *testing.T) {
	dir := t.TempDir()
	truth := truthT2()
	sysA, err := certainfix.New(paperex.Sigma0(), paperex.MasterRelation(), certainfix.WithWAL(dir), testKey)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sysA.FixContext(context.Background(), paperex.InputT2(), certainfix.SimulatedUser{Truth: truth})
	if err != nil {
		t.Fatal(err)
	}

	sess, err := sysA.Begin(context.Background(), paperex.InputT2())
	if err != nil {
		t.Fatal(err)
	}
	provideRound(t, sess, truth)
	token, err := sess.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if referenceCells(t, token) == 0 {
		t.Fatal("the token names no master value by symbol id: the recovered table is not exercised")
	}
	// The master moves on while the session is suspended.
	if _, err := sysA.UpdateMaster([]certainfix.Tuple{paperex.MasterRelation().Tuple(0).Clone()}, nil); err != nil {
		t.Fatal(err)
	}
	if err := sysA.Close(); err != nil {
		t.Fatal(err)
	}

	// "Next process": recovered entirely from the WAL directory, and given
	// the key the previous process sealed its tokens under.
	sysB, err := certainfix.New(paperex.Sigma0(), nil, certainfix.WithWAL(dir), testKey)
	if err != nil {
		t.Fatal(err)
	}
	defer sysB.Close()
	resumed, err := sysB.Resume(context.Background(), token)
	if err != nil {
		t.Fatalf("resume across restart: %v", err)
	}
	got := driveToEnd(t, resumed, truth)
	if canonical(t, got) != canonical(t, want) {
		t.Fatalf("post-restart resume diverged:\n got  %s\n want %s",
			canonical(t, got), canonical(t, want))
	}
}

// TestResumeEpochBehindCheckpoint: when checkpoints advance past a
// suspended session's epoch, the restarted ring cannot re-pin it — the
// typed ErrEpochEvicted surfaces, and RebaseToHead remains the escape
// hatch.
func TestResumeEpochBehindCheckpoint(t *testing.T) {
	dir := t.TempDir()
	truth := truthT2()
	sysA, err := certainfix.New(paperex.Sigma0(), paperex.MasterRelation(),
		certainfix.WithWAL(dir), testKey)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := sysA.Begin(context.Background(), paperex.InputT2())
	if err != nil {
		t.Fatal(err)
	}
	provideRound(t, sess, truth)
	token, err := sess.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// Four deltas, then a checkpoint past the session's pinned epoch 0.
	for i := 0; i < 4; i++ {
		if _, err := sysA.UpdateMaster([]certainfix.Tuple{paperex.MasterRelation().Tuple(i % 2).Clone()}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := sysA.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	sysA.Close()
	if st, _ := sysA.Durability(); st.CheckpointEpoch == 0 {
		t.Fatalf("fixture broken: no checkpoint advanced past epoch 0: %+v", st)
	}

	sysB, err := certainfix.New(paperex.Sigma0(), nil, certainfix.WithWAL(dir), testKey)
	if err != nil {
		t.Fatal(err)
	}
	defer sysB.Close()
	if _, err := sysB.Resume(context.Background(), token); !errors.Is(err, certainfix.ErrEpochEvicted) {
		t.Fatalf("want ErrEpochEvicted, got %v", err)
	}
	resumed, err := sysB.Resume(context.Background(), token, certainfix.RebaseToHead())
	if err != nil {
		t.Fatalf("rebase to head: %v", err)
	}
	if resumed.Done() {
		t.Fatal("rebased session finished prematurely")
	}
}

func TestWALCorruptionTypedAtAPI(t *testing.T) {
	dir := t.TempDir()
	sys := durableFixture(t, dir, true)
	for i := 0; i < 4; i++ {
		if _, err := sys.UpdateMaster([]certainfix.Tuple{
			certainfix.StringTuple(fmt.Sprintf("sku-c%d", i), "1.00", "x"),
		}, nil); err != nil {
			t.Fatal(err)
		}
	}
	sys.Close()
	segs, err := filepath.Glob(filepath.Join(dir, "*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no wal segments (err %v)", err)
	}
	// Fabricate unrecoverable corruption: duplicate the segment under a
	// higher start epoch. Its frames are CRC-valid but the epochs inside
	// cannot belong there — exactly the case recovery must refuse to
	// repair (truncating would silently drop acknowledged records).
	b, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	bogus := filepath.Join(dir, "00000000000000000099.wal")
	if err := os.WriteFile(bogus, b, 0o644); err != nil {
		t.Fatal(err)
	}

	r := certainfix.StringSchema("order", "sku", "price", "desc")
	rm := certainfix.StringSchema("catalog", "sku", "price", "desc")
	rules, err := certainfix.ParseRules(r, rm, `
rule price: (sku ; sku) -> (price ; price)
rule desc:  (sku ; sku) -> (desc ; desc)
`)
	if err != nil {
		t.Fatal(err)
	}
	_, err = certainfix.New(rules, nil, certainfix.WithWAL(dir))
	if !errors.Is(err, certainfix.ErrWALCorrupt) {
		t.Fatalf("want ErrWALCorrupt, got %v", err)
	}
	var ce *certainfix.WALCorruptError
	if !errors.As(err, &ce) || ce.Path != bogus {
		t.Fatalf("want *WALCorruptError locating %s, got %#v", bogus, err)
	}
}
