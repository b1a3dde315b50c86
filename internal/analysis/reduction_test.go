package analysis_test

// The lower-bound proofs of §4 are constructive reductions. This file
// implements them as executable fixtures: building the instances of the
// Thm 1 (3SAT → consistency), Thm 6 (3SAT → Z-validating), Thm 9
// (#3SAT → Z-counting) and Thm 12 (set cover → Z-minimum) proofs and
// checking that the implemented analyses answer exactly as the proofs
// claim. This both tests the checkers on adversarial shapes (negations,
// cascades, integer domains) and documents the reductions.

import (
	"fmt"
	"testing"

	"repro/internal/analysis"
	"repro/internal/fix"
	"repro/internal/master"
	"repro/internal/oracle"
	"repro/internal/pattern"
	"repro/internal/relation"
	"repro/internal/rule"
)

// literal is a 3SAT literal: variable index (1-based) with sign.
type literal struct {
	v   int
	neg bool
}

// clause3 is a 3-literal clause.
type clause3 [3]literal

// satisfies reports whether assignment (1-based booleans) satisfies c.
func (c clause3) satisfies(assign []bool) bool {
	for _, l := range c[:] {
		if assign[l.v] != l.neg {
			return true
		}
	}
	return false
}

// bruteSatCount counts satisfying assignments of the formula.
func bruteSatCount(m int, clauses []clause3) int {
	count := 0
	for mask := 0; mask < 1<<m; mask++ {
		assign := make([]bool, m+1)
		for v := 1; v <= m; v++ {
			assign[v] = mask>>(v-1)&1 == 1
		}
		ok := true
		for _, c := range clauses {
			if !c.satisfies(assign) {
				ok = false
				break
			}
		}
		if ok {
			count++
		}
	}
	return count
}

// buildTheorem1Instance constructs the consistency instance of the Thm 1
// proof for a 3SAT formula over m variables.
func buildTheorem1Instance(t *testing.T, m int, clauses []clause3) (*analysis.Checker, *fix.Region) {
	t.Helper()
	n := len(clauses)
	attrs := []relation.Attribute{{Name: "A", Type: relation.TypeInt}}
	for v := 1; v <= m; v++ {
		attrs = append(attrs, relation.Attribute{Name: fmt.Sprintf("X%d", v), Type: relation.TypeInt})
	}
	for j := 1; j <= n; j++ {
		attrs = append(attrs, relation.Attribute{Name: fmt.Sprintf("C%d", j), Type: relation.TypeInt})
	}
	attrs = append(attrs,
		relation.Attribute{Name: "V", Type: relation.TypeInt},
		relation.Attribute{Name: "B", Type: relation.TypeInt})
	r := relation.MustSchema("R", attrs...)

	rm := relation.MustSchema("Rm",
		relation.Attribute{Name: "Y0", Type: relation.TypeInt},
		relation.Attribute{Name: "Y1", Type: relation.TypeInt},
		relation.Attribute{Name: "A", Type: relation.TypeInt},
		relation.Attribute{Name: "V", Type: relation.TypeInt},
		relation.Attribute{Name: "B", Type: relation.TypeInt},
	)
	rel := relation.NewRelation(rm)
	rel.MustAppend(
		relation.TupleOf(relation.Int(0), relation.Int(1), relation.Int(1), relation.Int(1), relation.Int(1)),
		relation.TupleOf(relation.Int(0), relation.Int(1), relation.Int(1), relation.Int(1), relation.Int(0)),
		relation.TupleOf(relation.Int(0), relation.Int(1), relation.Int(1), relation.Int(0), relation.Int(1)),
	)

	sigma := rule.MustNewSet(r, rm)
	aR, aM := r.MustPos("A"), rm.MustPos("A")
	// Σj: eight rules per clause enumerating the variable assignments.
	for j, cl := range clauses {
		cPos := r.MustPos(fmt.Sprintf("C%d", j+1))
		xPos := []int{
			r.MustPos(fmt.Sprintf("X%d", cl[0].v)),
			r.MustPos(fmt.Sprintf("X%d", cl[1].v)),
			r.MustPos(fmt.Sprintf("X%d", cl[2].v)),
		}
		for bits := 0; bits < 8; bits++ {
			b1, b2, b3 := bits>>2&1, bits>>1&1, bits&1
			assign := make([]bool, 0, 3)
			assign = append(assign, b1 == 1, b2 == 1, b3 == 1)
			// Yj = Y0 when this assignment makes the clause false.
			clauseTrue := false
			for li, l := range cl[:] {
				if assign[li] != l.neg {
					clauseTrue = true
					break
				}
			}
			ym := rm.MustPos("Y1")
			if !clauseTrue {
				ym = rm.MustPos("Y0")
			}
			tp := pattern.MustTuple(xPos, []pattern.Cell{
				pattern.Eq(relation.Int(int64(b1))),
				pattern.Eq(relation.Int(int64(b2))),
				pattern.Eq(relation.Int(int64(b3))),
			})
			sigma.Add(rule.MustNew(fmt.Sprintf("phi_%d_%d", j+1, bits),
				r, rm, []int{aR}, []int{aM}, cPos, ym, tp))
		}
	}
	// ΣC,V: clause false → V = 0; all clauses true → V = 1.
	for j := 1; j <= n; j++ {
		tp := pattern.MustTuple(
			[]int{r.MustPos(fmt.Sprintf("C%d", j))},
			[]pattern.Cell{pattern.Eq(relation.Int(0))})
		sigma.Add(rule.MustNew(fmt.Sprintf("phiV_%d", j),
			r, rm, []int{aR}, []int{aM}, r.MustPos("V"), rm.MustPos("Y0"), tp))
	}
	allOnePos := make([]int, n)
	allOneCells := make([]pattern.Cell, n)
	for j := 1; j <= n; j++ {
		allOnePos[j-1] = r.MustPos(fmt.Sprintf("C%d", j))
		allOneCells[j-1] = pattern.Eq(relation.Int(1))
	}
	sigma.Add(rule.MustNew("phiV_all", r, rm, []int{aR}, []int{aM},
		r.MustPos("V"), rm.MustPos("Y1"), pattern.MustTuple(allOnePos, allOneCells)))
	// ΣV,B: the conflict gadget.
	sigma.Add(rule.MustNew("phiVB", r, rm,
		[]int{r.MustPos("V")}, []int{rm.MustPos("V")},
		r.MustPos("B"), rm.MustPos("B"), pattern.Empty()))

	// Region: Z = (A, X1..Xm), tc = (1, _, ..., _).
	z := []int{aR}
	for v := 1; v <= m; v++ {
		z = append(z, r.MustPos(fmt.Sprintf("X%d", v)))
	}
	row := pattern.MustTuple([]int{aR}, []pattern.Cell{pattern.Eq(relation.Int(1))})
	reg := fix.MustRegion(z, pattern.NewTableau(row))

	dm := master.MustNewForRules(rel, sigma)
	return analysis.NewChecker(sigma, sigma.Compile(), dm), reg
}

// TestTheorem1Reduction: (Σ, Dm) is consistent relative to (Z, Tc) iff the
// 3SAT formula is unsatisfiable — on satisfiable, unsatisfiable and mixed
// formulas.
func TestTheorem1Reduction(t *testing.T) {
	x := func(v int) literal { return literal{v: v} }
	nx := func(v int) literal { return literal{v: v, neg: true} }

	cases := []struct {
		name    string
		m       int
		clauses []clause3
	}{
		{"satisfiable-single", 3, []clause3{{x(1), x(2), x(3)}}},
		{"satisfiable-two", 3, []clause3{{x(1), x(2), x(3)}, {nx(1), nx(2), nx(3)}}},
		{"unsat-enumeration", 3, []clause3{
			{x(1), x(2), x(3)}, {x(1), x(2), nx(3)}, {x(1), nx(2), x(3)}, {x(1), nx(2), nx(3)},
			{nx(1), x(2), x(3)}, {nx(1), x(2), nx(3)}, {nx(1), nx(2), x(3)}, {nx(1), nx(2), nx(3)},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checker, reg := buildTheorem1Instance(t, tc.m, tc.clauses)
			v, err := checker.Consistent(reg)
			if err != nil {
				t.Fatal(err)
			}
			satisfiable := bruteSatCount(tc.m, tc.clauses) > 0
			if v.OK != !satisfiable {
				t.Fatalf("consistent=%v but satisfiable=%v (%s)", v.OK, satisfiable, v.Detail)
			}
			// Cross-check with the oracle for confidence.
			ov, err := oracle.Consistent(checker.Sigma(), checker.Master(), reg)
			if err != nil {
				t.Fatal(err)
			}
			if ov.OK != v.OK {
				t.Fatalf("oracle disagrees: %v vs %v", ov.OK, v.OK)
			}
		})
	}
}

// buildTheorem6Instance constructs the Z-validating instance of the Thm 6
// proof.
func buildTheorem6Instance(t *testing.T, m int, clauses []clause3) (*analysis.Checker, []int) {
	t.Helper()
	n := len(clauses)
	var attrs []relation.Attribute
	for v := 1; v <= m; v++ {
		attrs = append(attrs, relation.Attribute{Name: fmt.Sprintf("X%d", v), Type: relation.TypeInt})
	}
	for j := 1; j <= n; j++ {
		attrs = append(attrs, relation.Attribute{Name: fmt.Sprintf("C%d", j), Type: relation.TypeInt})
	}
	attrs = append(attrs, relation.Attribute{Name: "V", Type: relation.TypeInt})
	r := relation.MustSchema("R", attrs...)

	rm := relation.MustSchema("Rm",
		relation.Attribute{Name: "B1", Type: relation.TypeInt},
		relation.Attribute{Name: "B2", Type: relation.TypeInt},
		relation.Attribute{Name: "B3", Type: relation.TypeInt},
		relation.Attribute{Name: "C", Type: relation.TypeInt},
		relation.Attribute{Name: "V1", Type: relation.TypeInt},
		relation.Attribute{Name: "V0", Type: relation.TypeInt},
	)
	rel := relation.NewRelation(rm)
	for bits := 0; bits < 8; bits++ {
		rel.MustAppend(relation.TupleOf(
			relation.Int(int64(bits>>2&1)), relation.Int(int64(bits>>1&1)), relation.Int(int64(bits&1)),
			relation.Int(1), relation.Int(1), relation.Int(0),
		))
	}

	sigma := rule.MustNewSet(r, rm)
	bPos := []int{rm.MustPos("B1"), rm.MustPos("B2"), rm.MustPos("B3")}
	for j, cl := range clauses {
		xPos := []int{
			r.MustPos(fmt.Sprintf("X%d", cl[0].v)),
			r.MustPos(fmt.Sprintf("X%d", cl[1].v)),
			r.MustPos(fmt.Sprintf("X%d", cl[2].v)),
		}
		cPos := r.MustPos(fmt.Sprintf("C%d", j+1))
		sigma.Add(rule.MustNew(fmt.Sprintf("phi_%d_1", j+1), r, rm, xPos, bPos, cPos, rm.MustPos("C"), pattern.Empty()))
		sigma.Add(rule.MustNew(fmt.Sprintf("phi_%d_2", j+1), r, rm, xPos, bPos, r.MustPos("V"), rm.MustPos("V1"), pattern.Empty()))
		// ϕj,3 fires only on the falsifying assignment of the clause.
		falsify := make([]pattern.Cell, 3)
		for li, l := range cl[:] {
			bit := int64(0)
			if l.neg {
				bit = 1
			}
			falsify[li] = pattern.Eq(relation.Int(bit))
		}
		sigma.Add(rule.MustNew(fmt.Sprintf("phi_%d_3", j+1), r, rm, xPos, bPos, r.MustPos("V"), rm.MustPos("V0"),
			pattern.MustTuple(xPos, falsify)))
	}

	z := make([]int, m)
	for v := 1; v <= m; v++ {
		z[v-1] = r.MustPos(fmt.Sprintf("X%d", v))
	}
	dm := master.MustNewForRules(rel, sigma)
	return analysis.NewChecker(sigma, sigma.Compile(), dm), z
}

// TestTheorem6And9Reductions: Z-validating answers satisfiability and
// Z-counting counts satisfying assignments (the parsimonious reduction of
// Thm 9).
func TestTheorem6And9Reductions(t *testing.T) {
	x := func(v int) literal { return literal{v: v} }
	nx := func(v int) literal { return literal{v: v, neg: true} }

	cases := []struct {
		name    string
		m       int
		clauses []clause3
	}{
		{"one-clause", 3, []clause3{{x(1), x(2), x(3)}}},
		{"two-clauses", 3, []clause3{{x(1), x(2), x(3)}, {nx(1), nx(2), x(3)}}},
		{"unsat", 2, []clause3{
			// (x1∨x1∨x2)(x1∨x1∨¬x2)(¬x1∨¬x1∨x2)(¬x1∨¬x1∨¬x2) — uses
			// repeated variables, which the construction forbids (pattern
			// positions must be distinct); use 3 distinct vars instead.
		}},
	}
	// Replace the empty unsat case with a proper 3-variable enumeration.
	cases[2].m = 3
	cases[2].clauses = []clause3{
		{x(1), x(2), x(3)}, {x(1), x(2), nx(3)}, {x(1), nx(2), x(3)}, {x(1), nx(2), nx(3)},
		{nx(1), x(2), x(3)}, {nx(1), x(2), nx(3)}, {nx(1), nx(2), x(3)}, {nx(1), nx(2), nx(3)},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checker, z := buildTheorem6Instance(t, tc.m, tc.clauses)
			want := bruteSatCount(tc.m, tc.clauses)

			ok, err := checker.ZValidating(z)
			if err != nil {
				t.Fatal(err)
			}
			if ok != (want > 0) {
				t.Fatalf("ZValidating=%v but #sat=%d", ok, want)
			}
			got, err := checker.ZCounting(z)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("ZCounting=%d, want %d", got, want)
			}
		})
	}
}

// buildTheorem12Instance constructs the Z-minimum instance of the Thm 12
// proof for a set-cover instance.
func buildTheorem12Instance(t *testing.T, nElems int, subsets [][]int) (*analysis.Checker, int) {
	t.Helper()
	h := len(subsets)
	var attrs []relation.Attribute
	for j := 1; j <= h; j++ {
		attrs = append(attrs, relation.Attribute{Name: fmt.Sprintf("C%d", j), Type: relation.TypeInt})
	}
	for i := 1; i <= nElems; i++ {
		for l := 1; l <= h+1; l++ {
			attrs = append(attrs, relation.Attribute{Name: fmt.Sprintf("X%d_%d", i, l), Type: relation.TypeInt})
		}
	}
	r := relation.MustSchema("R", attrs...)
	rm := relation.MustSchema("Rm",
		relation.Attribute{Name: "B1", Type: relation.TypeInt},
		relation.Attribute{Name: "B2", Type: relation.TypeInt},
	)
	rel := relation.NewRelation(rm)
	rel.MustAppend(relation.TupleOf(relation.Int(1), relation.Int(1)))

	sigma := rule.MustNewSet(r, rm)
	b1, b2 := rm.MustPos("B1"), rm.MustPos("B2")
	for j, subset := range subsets {
		cPos := r.MustPos(fmt.Sprintf("C%d", j+1))
		var allX []int
		for _, xi := range subset {
			for l := 1; l <= h+1; l++ {
				xPos := r.MustPos(fmt.Sprintf("X%d_%d", xi, l))
				allX = append(allX, xPos)
				sigma.Add(rule.MustNew(fmt.Sprintf("phi_%d_%d_%d", j+1, xi, l),
					r, rm, []int{cPos}, []int{b1}, xPos, b2, pattern.Empty()))
			}
		}
		b1s := make([]int, len(allX))
		for i := range b1s {
			b1s[i] = b1
		}
		sigma.Add(rule.MustNew(fmt.Sprintf("phi_%d_cov", j+1),
			r, rm, allX, b1s, cPos, b2, pattern.Empty()))
	}
	dm := master.MustNewForRules(rel, sigma)
	return analysis.NewChecker(sigma, sigma.Compile(), dm), h
}

// TestTheorem12Reduction: Z-minimum with budget K answers whether the set
// cover instance has a cover of size ≤ K.
func TestTheorem12Reduction(t *testing.T) {
	// U = {1,2,3}; S = {C1 = {1,2}, C2 = {2,3}, C3 = {3}}.
	// Minimum cover = {C1, C2} (size 2); no size-1 cover exists.
	checker, _ := buildTheorem12Instance(t, 3, [][]int{{1, 2}, {2, 3}, {3}})

	if _, ok, err := checker.ZMinimum(1); err != nil || ok {
		t.Fatalf("no size-1 cover should exist: ok=%v err=%v", ok, err)
	}
	z, ok, err := checker.ZMinimum(2)
	if err != nil || !ok {
		t.Fatalf("size-2 cover must exist: ok=%v err=%v", ok, err)
	}
	if len(z) > 2 {
		t.Fatalf("witness Z has %d attributes, want ≤ 2", len(z))
	}
}
