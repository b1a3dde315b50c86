package increp_test

import (
	"testing"

	"repro/internal/experiments/cfd"
	"repro/internal/experiments/increp"
	"repro/internal/pattern"
	"repro/internal/relation"
)

// chainCFDs builds two CFDs whose repairs cascade: A=k → B=v1, B=v1 → C=v2.
func chainCFDs(r *relation.Schema) *cfd.Set {
	return cfd.NewSet(r,
		cfd.MustNew("c1", r, []int{0}, 1,
			pattern.MustTuple([]int{0}, []pattern.Cell{pattern.EqStr("k")}),
			pattern.EqStr("v1")),
		cfd.MustNew("c2", r, []int{1}, 2,
			pattern.MustTuple([]int{1}, []pattern.Cell{pattern.EqStr("v1")}),
			pattern.EqStr("v2")),
	)
}

// TestIncRepCascadingRepairs: fixing B triggers the second CFD and fixes
// C in the same repair loop.
func TestIncRepCascadingRepairs(t *testing.T) {
	r := relation.StringSchema("R", "A", "B", "C")
	rep := increp.New(chainCFDs(r), increp.Options{})
	tup := relation.StringTuple("k", "v1x", "wrong")
	changed := rep.RepairTuple(tup)
	if len(changed) != 2 {
		t.Fatalf("changed = %v, want B and C", changed)
	}
	if tup[1].Str() != "v1" || tup[2].Str() != "v2" {
		t.Fatalf("tuple = %v", tup)
	}
}

// TestIncRepMaxIterations: a cap of one stops after a single change.
func TestIncRepMaxIterations(t *testing.T) {
	r := relation.StringSchema("R", "A", "B", "C")
	rep := increp.New(chainCFDs(r), increp.Options{MaxIterations: 1})
	tup := relation.StringTuple("k", "v1x", "wrong")
	changed := rep.RepairTuple(tup)
	if len(changed) != 1 {
		t.Fatalf("changed = %v, want exactly one cell", changed)
	}
}

// TestIncRepFrozenCellsNotRetouched: a repaired cell is never modified
// again even when a later CFD disagrees — the termination device.
func TestIncRepFrozenCellsNotRetouched(t *testing.T) {
	r := relation.StringSchema("R", "A", "B")
	set := cfd.NewSet(r,
		// Two CFDs with the same lhs demanding different B values: the
		// second can never be satisfied after the first repairs B.
		cfd.MustNew("c1", r, []int{0}, 1,
			pattern.MustTuple([]int{0}, []pattern.Cell{pattern.EqStr("k")}),
			pattern.EqStr("x")),
		cfd.MustNew("c2", r, []int{0}, 1,
			pattern.MustTuple([]int{0}, []pattern.Cell{pattern.EqStr("k")}),
			pattern.EqStr("y")),
	)
	rep := increp.New(set, increp.Options{})
	tup := relation.StringTuple("k", "neither")
	changed := rep.RepairTuple(tup)
	// One repair happens; the disagreeing CFD is skipped, B stays frozen.
	if len(changed) != 1 {
		t.Fatalf("changed = %v", changed)
	}
	if got := tup[1].Str(); got != "x" && got != "y" {
		t.Fatalf("B = %q", got)
	}
}

// TestIncRepCandidateCap: the domain for lhs-breaking honours the cap.
func TestIncRepCandidateCap(t *testing.T) {
	r := relation.StringSchema("R", "A", "B")
	var cfds []*cfd.CFD
	for i := 0; i < 30; i++ {
		cfds = append(cfds, cfd.MustNew("c", r, []int{0}, 1,
			pattern.MustTuple([]int{0}, []pattern.Cell{pattern.EqStr(string(rune('a' + i)))}),
			pattern.EqStr("v")))
	}
	// Cap of 2 candidate values per attribute: construction must not
	// panic, repair must still work.
	rep := increp.New(cfd.NewSet(r, cfds...), increp.Options{CandidateCap: 2})
	tup := relation.StringTuple("a", "wrong")
	rep.RepairTuple(tup)
	if tup[1].Str() != "v" && tup[0].Str() == "a" {
		t.Fatalf("violation unresolved: %v", tup)
	}
}
