package suggest_test

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/master"
	"repro/internal/paperex"
	"repro/internal/relation"
	"repro/internal/suggest"
)

// TestDeriverPinAt pins what a view binds — the epoch's snapshot, and with
// it |Dm| and every answer — not which object it is: a versioned deriver
// re-pins historical epochs from the ring, answers identically however
// often a retained epoch is pinned, serves the head, and surfaces
// ErrEpochEvicted for evicted epochs; a static deriver only knows its own
// epoch, through the same path.
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
	head, err := d.PinAt(ver.Epoch())
	if err != nil {
		t.Fatalf("PinAt(head): %v", err)
	}
	if head.Master() != ver.Current() || head.Master().Len() != 3 || d.Pin().Master() != ver.Current() {
		t.Fatal("PinAt(head) and Pin must bind the published head snapshot")
	}
	// Jane's zip is master evidence only from the head epoch on: with zip
	// validated the old view must still ask for what ϕ1–ϕ3 would fix.
	zip := relation.NewAttrSet(sigma.Schema().MustPos("zip"))
	input := paperex.InputT1().Clone()
	input[sigma.Schema().MustPos("zip")] = relation.String("ZZ1 1ZZ")
	oldS, headS := old.Suggest(input, zip).S, head.Suggest(input, zip).S
	if len(oldS) <= len(headS) {
		t.Fatalf("old view suggests %v, head %v: the old view must not see the added tuple", oldS, headS)
	}
	// A retained epoch pinned again answers identically: same snapshot,
	// same suggestions, same region verdicts.
	for i := 0; i < 3; i++ {
		again, err := d.PinAt(e0)
		if err != nil {
			t.Fatalf("PinAt(e0) again: %v", err)
		}
		if again.Master() != old.Master() || again.Epoch() != e0 {
			t.Fatalf("PinAt(e0) again bound epoch %d, want the retained snapshot of epoch %d", again.Epoch(), e0)
		}
		if got := again.Suggest(input, zip).S; !slices.Equal(got, oldS) {
			t.Fatalf("PinAt(e0) again suggests %v, first pin %v", got, oldS)
		}
		if got, want := again.IsSuggestionFast(zip, oldS), old.IsSuggestionFast(zip, oldS); got != want {
			t.Fatalf("PinAt(e0) again: IsSuggestionFast %v, first pin %v", got, want)
		}
	}

	ver.SetHistory(1)
	if _, err := d.PinAt(e0); !errors.Is(err, master.ErrEpochEvicted) {
		t.Fatalf("PinAt(evicted) = %v, want ErrEpochEvicted", err)
	}

	static := suggest.NewDeriver(sigma, dm)
	if got, err := static.PinAt(dm.Epoch()); err != nil || got.Master() != dm || got.Epoch() != dm.Epoch() {
		t.Fatalf("static PinAt(own epoch) = %v, %v", got, err)
	}
	if _, err := static.PinAt(dm.Epoch() + 1); !errors.Is(err, master.ErrEpochAhead) {
		t.Fatalf("static PinAt(later epoch) = %v, want ErrEpochAhead", err)
	}
}
