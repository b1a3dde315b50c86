package master

import (
	"testing"

	"repro/internal/pattern"
	"repro/internal/relation"
	"repro/internal/rule"
)

// deltaFixture builds a small 2-column keyed master with one rule
// (A ; MA) -> (B ; MB) and tuples k0..k<n-1>.
func deltaFixture(t *testing.T, n int) (*Data, *rule.Set, *rule.Rule) {
	t.Helper()
	r := relation.StringSchema("R", "A", "B")
	rm := relation.StringSchema("Rm", "MA", "MB")
	ru := rule.MustNew("kv", r, rm, []int{0}, []int{0}, 1, 1, pattern.Empty())
	sigma := rule.MustNewSet(r, rm, ru)
	rel := relation.NewRelation(rm)
	for i := 0; i < n; i++ {
		rel.MustAppend(relation.StringTuple(key(i), val(i)))
	}
	return MustNewForRules(rel, sigma), sigma, ru
}

func key(i int) string { return "k" + string(rune('a'+i%26)) + string(rune('a'+i/26)) }
func val(i int) string { return "v" + string(rune('a'+i%26)) + string(rune('a'+i/26)) }

func probeFor(k string) relation.Tuple {
	return relation.StringTuple(k, "dirty")
}

func TestApplyDeltaEpochAndBasics(t *testing.T) {
	d0, sigma, ru := deltaFixture(t, 4)
	if d0.Epoch() != 0 {
		t.Fatalf("fresh snapshot epoch = %d, want 0", d0.Epoch())
	}

	// Add one tuple: probe finds it only in the new snapshot.
	d1, err := d0.ApplyDelta([]relation.Tuple{relation.StringTuple("new", "nv")}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d1.Epoch() != 1 || d0.Epoch() != 0 {
		t.Fatalf("epochs after add: parent %d child %d, want 0 and 1", d0.Epoch(), d1.Epoch())
	}
	if d1.Len() != 5 || d0.Len() != 4 {
		t.Fatalf("lengths after add: parent %d child %d, want 4 and 5", d0.Len(), d1.Len())
	}
	if ids := d1.MatchIDs(ru, probeFor("new")); len(ids) != 1 || ids[0] != 4 {
		t.Fatalf("new tuple probe in child = %v, want [4]", ids)
	}
	if ids := d0.MatchIDs(ru, probeFor("new")); len(ids) != 0 {
		t.Fatalf("new tuple visible in parent: %v", ids)
	}
	checkEquiv(t, "after add", d1, sigma)

	// Swap-remove delete: the last tuple takes the freed id.
	d2, err := d1.ApplyDelta(nil, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if d2.Len() != 4 {
		t.Fatalf("length after delete = %d, want 4", d2.Len())
	}
	if ids := d2.MatchIDs(ru, probeFor(key(1))); len(ids) != 0 {
		t.Fatalf("deleted tuple still probeable: %v", ids)
	}
	if ids := d2.MatchIDs(ru, probeFor("new")); len(ids) != 1 || ids[0] != 1 {
		t.Fatalf("moved tuple probe = %v, want [1] (swap-remove)", ids)
	}
	// The older snapshots are untouched.
	if ids := d1.MatchIDs(ru, probeFor(key(1))); len(ids) != 1 || ids[0] != 1 {
		t.Fatalf("parent snapshot changed by child delete: %v", ids)
	}
	checkEquiv(t, "after delete", d2, sigma)

	// Mixed delta including a delete of the last id (no move).
	d3, err := d2.ApplyDelta(
		[]relation.Tuple{relation.StringTuple("x1", "y1"), relation.StringTuple("x2", "y2")},
		[]int{d2.Len() - 1, 0},
	)
	if err != nil {
		t.Fatal(err)
	}
	if d3.Len() != 4 {
		t.Fatalf("length after mixed delta = %d, want 4", d3.Len())
	}
	checkEquiv(t, "after mixed", d3, sigma)
	if vals := rhsValues(d3, ru, probeFor("x2")); len(vals) != 1 || vals[0].Str() != "y2" {
		t.Fatalf("AppendRHSValues for added tuple = %v, want [y2]", vals)
	}
}

func TestApplyDeltaErrors(t *testing.T) {
	d0, _, _ := deltaFixture(t, 3)
	if _, err := d0.ApplyDelta(nil, []int{3}); err == nil {
		t.Fatal("out-of-range delete must error")
	}
	if _, err := d0.ApplyDelta(nil, []int{-1}); err == nil {
		t.Fatal("negative delete must error")
	}
	if _, err := d0.ApplyDelta(nil, []int{1, 1}); err == nil {
		t.Fatal("duplicate delete must error")
	}
	if _, err := d0.ApplyDelta([]relation.Tuple{relation.StringTuple("only-one-cell")}, nil); err == nil {
		t.Fatal("arity-mismatched add must error")
	}
	if d0.Epoch() != 0 || d0.Len() != 3 {
		t.Fatal("failed deltas must leave the snapshot untouched")
	}
}

// hasMatch reports whether some master tuple applies with ru to t, through
// the value probe TransFix makes.
func hasMatch(d *Data, ru *rule.Rule, t relation.Tuple) bool {
	_, witness := d.AppendRHSValues(nil, ru, t)
	return witness >= 0
}

func TestApplyDeltaDeleteAll(t *testing.T) {
	d0, sigma, ru := deltaFixture(t, 3)
	d1, err := d0.ApplyDelta(nil, []int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if d1.Len() != 0 {
		t.Fatalf("length after delete-all = %d", d1.Len())
	}
	if hasMatch(d1, ru, probeFor(key(0))) {
		t.Fatal("probe against emptied master must miss")
	}
	if d1.PatternSupported(ru) {
		t.Fatal("pattern support must drop to zero with the last tuple")
	}
	checkEquiv(t, "after delete-all", d1, sigma)

	// The chain continues past empty.
	d2, err := d1.ApplyDelta([]relation.Tuple{relation.StringTuple("z", "zz")}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !hasMatch(d2, ru, probeFor("z")) || d2.Epoch() != 2 {
		t.Fatalf("refilled master: hasMatch=%v epoch=%d", hasMatch(d2, ru, probeFor("z")), d2.Epoch())
	}
	checkEquiv(t, "after refill", d2, sigma)
}

func TestApplyDeltaAddedTuplesAreCopied(t *testing.T) {
	d0, _, ru := deltaFixture(t, 2)
	add := relation.StringTuple("mine", "mv")
	d1, err := d0.ApplyDelta([]relation.Tuple{add}, nil)
	if err != nil {
		t.Fatal(err)
	}
	add[0] = relation.String("mutated")
	if !hasMatch(d1, ru, probeFor("mine")) {
		t.Fatal("snapshot must own a copy of added tuples")
	}
	if hasMatch(d1, ru, probeFor("mutated")) {
		t.Fatal("caller mutation leaked into the snapshot")
	}
}

func TestVersionedPublish(t *testing.T) {
	d0, _, ru := deltaFixture(t, 2)
	v := NewVersioned(d0)
	if v.Epoch() != 0 || v.Current() != d0 {
		t.Fatal("fresh Versioned must publish the seed snapshot")
	}
	pinned := v.Current()

	d1, err := v.Apply([]relation.Tuple{relation.StringTuple("w", "wv")}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v.Current() != d1 || v.Epoch() != 1 {
		t.Fatal("Apply must publish the derived snapshot")
	}
	if hasMatch(pinned, ru, probeFor("w")) {
		t.Fatal("pinned snapshot must not see the published delta")
	}
	if !hasMatch(v.Current(), ru, probeFor("w")) {
		t.Fatal("published snapshot must see the delta")
	}

	// A failing delta publishes nothing.
	if _, err := v.Apply(nil, []int{99}); err == nil {
		t.Fatal("invalid delta must error")
	}
	if v.Current() != d1 {
		t.Fatal("failed Apply must leave the head unchanged")
	}
}
