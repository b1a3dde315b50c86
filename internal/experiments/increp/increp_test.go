package increp_test

import (
	"testing"

	"repro/internal/experiments/cfd"
	"repro/internal/experiments/increp"
	"repro/internal/master"
	"repro/internal/paperex"
	"repro/internal/pattern"
	"repro/internal/relation"
)

func sigma0CFDs(t *testing.T) *cfd.Set {
	t.Helper()
	sigma := paperex.Sigma0()
	dm := master.MustNewForRules(paperex.MasterRelation(), sigma)
	set, err := cfd.FromRules(sigma, dm)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// TestIncRepFixesRHSWhenCheap: when the lhs attributes carry higher
// confidence weights (the cost model of [14]), IncRep adopts the rhs
// constant — the desirable case.
func TestIncRepFixesRHSWhenCheap(t *testing.T) {
	r := paperex.SchemaR()
	set := sigma0CFDs(t)
	weights := make([]float64, r.Arity())
	for i := range weights {
		weights[i] = 3 // lhs attributes: expensive to touch
	}
	weights[r.MustPos("city")] = 1
	weights[r.MustPos("str")] = 1
	weights[r.MustPos("zip")] = 1
	rep := increp.New(set, increp.Options{Weights: weights})

	// Everything correct for s1 except city.
	t2 := paperex.InputT2()
	t2[r.MustPos("str")] = relation.String("51 Elm Row")
	t2[r.MustPos("zip")] = relation.String("EH7 4AH")
	changed := rep.RepairTuple(t2)
	if len(changed) == 0 {
		t.Fatal("IncRep must repair t2")
	}
	if t2[r.MustPos("city")].Str() != "Edi" {
		t.Fatalf("city = %v, want Edi", t2[r.MustPos("city")])
	}
}

// TestIncRepMayBreakLHS is the Example 1 phenomenon: for t1, overwriting
// city (Edi→Ldn is 3 edits on a 3-letter value) competes with moving the
// short lhs value AC (020→131); IncRep picks a cheapest resolution with
// no certainty guarantee, so SOME attribute changes — but nothing
// guarantees it picked correctly. The test pins the observable contract:
// the violation is resolved, and exactly one side of the constraint was
// touched.
func TestIncRepMayBreakLHS(t *testing.T) {
	set := sigma0CFDs(t)
	rep := increp.New(set, increp.Options{})

	t1 := paperex.InputT1()
	before := len(set.ViolationsOf(t1))
	changed := rep.RepairTuple(t1)
	after := len(set.ViolationsOf(t1))
	if len(changed) == 0 {
		t.Fatal("t1's inconsistencies require changes")
	}
	if after >= before {
		t.Fatalf("violations did not decrease: %d -> %d", before, after)
	}
}

// TestIncRepWeights: a very heavy rhs weight flips the resolution toward
// breaking the lhs.
func TestIncRepWeights(t *testing.T) {
	r := relation.StringSchema("R", "A", "B")
	lhs := []int{0}
	set := cfd.NewSet(r,
		cfd.MustNew("c1", r, lhs, 1,
			pattern.MustTuple(lhs, []pattern.Cell{pattern.EqStr("k")}),
			pattern.EqStr("good")),
		cfd.MustNew("c2", r, lhs, 1,
			pattern.MustTuple(lhs, []pattern.Cell{pattern.EqStr("kx")}),
			pattern.EqStr("other")),
	)

	// Cheap rhs: repair B.
	cheap := increp.New(set, increp.Options{})
	tup := relation.StringTuple("k", "good?")
	cheap.RepairTuple(tup)
	if tup[1].Str() != "good" {
		t.Fatalf("B = %v, want good", tup[1])
	}

	// Heavy rhs weight: move A off the pattern instead.
	heavy := increp.New(set, increp.Options{Weights: []float64{1, 1000}})
	tup = relation.StringTuple("k", "bad-value")
	heavy.RepairTuple(tup)
	if tup[1].Str() == "good" {
		t.Fatal("heavy rhs weight must prevent the rhs overwrite")
	}
	if tup[0].Str() == "k" {
		t.Fatal("lhs must have moved off the pattern")
	}
	if len(set.ViolationsOf(tup)) != 0 {
		t.Fatal("tuple must end violation-free")
	}
}

// TestIncRepNoViolationsNoChanges: clean tuples are untouched.
func TestIncRepNoViolationsNoChanges(t *testing.T) {
	set := sigma0CFDs(t)
	rep := increp.New(set, increp.Options{})
	t4 := paperex.InputT4() // matches no CFD lhs
	if changed := rep.RepairTuple(t4); len(changed) != 0 {
		t.Fatalf("changed %v on a tuple with no violations", changed)
	}
}

// TestIncRepRelation: whole-relation repair counts changed cells.
func TestIncRepRelation(t *testing.T) {
	set := sigma0CFDs(t)
	rep := increp.New(set, increp.Options{})
	rel := relation.NewRelation(paperex.SchemaR())
	rel.MustAppend(paperex.InputT1(), paperex.InputT2(), paperex.InputT4())
	n := rep.RepairRelation(rel)
	if n == 0 {
		t.Fatal("relation with dirty tuples must see changes")
	}
	// The clean tuple t4 must stay untouched.
	if !rel.Tuple(2).Equal(paperex.InputT4()) {
		t.Fatalf("clean tuple modified: %v", rel.Tuple(2))
	}
}
