package master_test

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/master"
	"repro/internal/paperex"
	"repro/internal/relation"
)

func newPaperVersioned(t *testing.T) *master.Versioned {
	t.Helper()
	dm, err := master.NewForRules(paperex.MasterRelation(), paperex.Sigma0())
	if err != nil {
		t.Fatal(err)
	}
	return master.NewVersioned(dm)
}

func addTuple(i int) relation.Tuple {
	return relation.StringTuple(
		"FN", "LN", "999", fmt.Sprintf("555%04d", i), "070000000",
		"1 Test St", "Tst", "ZZ1 1ZZ", "01/01/70", "F")
}

// TestVersionedAt: the head and recent epochs are retrievable; epochs
// beyond the retention bound fail with ErrEpochEvicted.
func TestVersionedAt(t *testing.T) {
	v := newPaperVersioned(t)
	base := v.Current()

	if got, err := v.At(base.Epoch()); err != nil || got != base {
		t.Fatalf("At(head) = %v, %v; want the base snapshot", got, err)
	}

	var snaps []*master.Data
	snaps = append(snaps, base)
	for i := 0; i < 3; i++ {
		next, err := v.Apply([]relation.Tuple{addTuple(i)}, nil)
		if err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, next)
	}
	for _, want := range snaps {
		got, err := v.At(want.Epoch())
		if err != nil {
			t.Fatalf("At(%d): %v", want.Epoch(), err)
		}
		if got != want {
			t.Fatalf("At(%d) returned epoch %d", want.Epoch(), got.Epoch())
		}
	}
	// An epoch this lineage has not reached is "not yet", never "evicted":
	// the caller's reaction to the latter is to rebase onto the head.
	for _, ahead := range []uint64{v.Epoch() + 1, 999} {
		if _, err := v.At(ahead); !errors.Is(err, master.ErrEpochAhead) || errors.Is(err, master.ErrEpochEvicted) {
			t.Fatalf("At(%d) with head %d = %v, want ErrEpochAhead only", ahead, v.Epoch(), err)
		}
	}
}

// TestVersionedEviction: the ring is bounded; old epochs are evicted in
// publication order, and SetHistory shrinks retention immediately.
func TestVersionedEviction(t *testing.T) {
	v := newPaperVersioned(t)
	v.SetHistory(2)
	if v.History() != 2 {
		t.Fatalf("History() = %d", v.History())
	}
	e0 := v.Epoch()
	for i := 0; i < 2; i++ {
		if _, err := v.Apply([]relation.Tuple{addTuple(i)}, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Ring holds epochs e0+1, e0+2; e0 is evicted.
	if _, err := v.At(e0); !errors.Is(err, master.ErrEpochEvicted) {
		t.Fatalf("At(evicted e0) = %v, want ErrEpochEvicted", err)
	}
	if _, err := v.At(e0 + 1); err != nil {
		t.Fatalf("At(e0+1): %v", err)
	}
	if _, err := v.At(e0 + 2); err != nil {
		t.Fatalf("At(head): %v", err)
	}

	// Shrinking to 1 keeps only the head, even without a new publish.
	v.SetHistory(1)
	if _, err := v.At(e0 + 1); !errors.Is(err, master.ErrEpochEvicted) {
		t.Fatalf("At after SetHistory(1) = %v, want ErrEpochEvicted", err)
	}
	if _, err := v.At(v.Epoch()); err != nil {
		t.Fatalf("head must always be retained: %v", err)
	}

	// The head survives any clamp, including nonsense bounds.
	v.SetHistory(0)
	if v.History() != 1 {
		t.Fatalf("History after SetHistory(0) = %d, want 1", v.History())
	}
	if _, err := v.At(v.Epoch()); err != nil {
		t.Fatalf("head after clamp: %v", err)
	}
}

// TestVersionedRetainedSnapshotUsable: a historical snapshot keeps
// answering probes with its own view of Dm after later deltas.
func TestVersionedRetainedSnapshotUsable(t *testing.T) {
	v := newPaperVersioned(t)
	old := v.Current()
	oldLen := old.Len()
	if _, err := v.Apply(nil, []int{0}); err != nil { // delete s1 at the head
		t.Fatal(err)
	}
	got, err := v.At(old.Epoch())
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != oldLen {
		t.Fatalf("retained snapshot |Dm| = %d, want %d", got.Len(), oldLen)
	}
	if v.Current().Len() != oldLen-1 {
		t.Fatalf("head |Dm| = %d, want %d", v.Current().Len(), oldLen-1)
	}
}
