package suggest_test

import (
	"errors"
	"testing"

	"repro/internal/master"
	"repro/internal/paperex"
	"repro/internal/relation"
	"repro/internal/suggest"
)

// TestDeriverPinAt: a versioned deriver re-pins historical epochs from
// the ring, serves the head through the cached view, and surfaces
// ErrEpochEvicted for evicted epochs; a static deriver only knows its
// own epoch, through the same path.
func TestDeriverPinAt(t *testing.T) {
	sigma := paperex.Sigma0()
	dm, err := master.NewForRules(paperex.MasterRelation(), sigma)
	if err != nil {
		t.Fatal(err)
	}
	ver := master.NewVersioned(dm)
	d := suggest.NewDeriverVersioned(sigma, ver)

	e0 := ver.Epoch()
	add := relation.StringTuple(
		"Jane", "Doe", "999", "5551234", "070000000",
		"1 Test St", "Tst", "ZZ1 1ZZ", "01/01/70", "F")
	if _, err := ver.Apply([]relation.Tuple{add}, nil); err != nil {
		t.Fatal(err)
	}

	old, err := d.PinAt(e0)
	if err != nil {
		t.Fatalf("PinAt(e0): %v", err)
	}
	if old.Master().Epoch() != e0 || old.Master().Len() != 2 {
		t.Fatalf("PinAt(e0) bound epoch %d |Dm|=%d, want epoch %d |Dm|=2",
			old.Master().Epoch(), old.Master().Len(), e0)
	}
	// Historical views are cached: the engine rebuild happens once per
	// epoch, not once per resume.
	if again, err := d.PinAt(e0); err != nil || again != old {
		t.Fatalf("PinAt(e0) again = %p, %v; want the cached view %p", again, err, old)
	}
	head, err := d.PinAt(ver.Epoch())
	if err != nil {
		t.Fatalf("PinAt(head): %v", err)
	}
	if head.Master() != ver.Current() {
		t.Fatal("PinAt(head) must bind the published head snapshot")
	}
	if again := d.Pin(); again != head {
		t.Fatal("PinAt(head) must populate the cached head view")
	}

	ver.SetHistory(1)
	if _, err := d.PinAt(e0); !errors.Is(err, master.ErrEpochEvicted) {
		t.Fatalf("PinAt(evicted) = %v, want ErrEpochEvicted", err)
	}

	static := suggest.NewDeriver(sigma, dm)
	if got, err := static.PinAt(dm.Epoch()); err != nil || got.Master() != dm || got != static.Pin() {
		t.Fatalf("static PinAt(own epoch) = %v, %v", got, err)
	}
	if _, err := static.PinAt(dm.Epoch() + 1); !errors.Is(err, master.ErrEpochEvicted) {
		t.Fatalf("static PinAt(other epoch) = %v, want ErrEpochEvicted", err)
	}
}
