package analysis_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/analysis"
	"repro/internal/fix"
	"repro/internal/master"
	"repro/internal/oracle"
	"repro/internal/pattern"
	"repro/internal/relation"
	"repro/internal/rule"
)

// randomInstance builds a small random (Σ, Dm, region) triple over a tiny
// value domain to force collisions, conflicts and cascades.
func randomInstance(rng *rand.Rand) (*rule.Set, *master.Data, *fix.Region) {
	return randomInstanceOver(rng, relation.String("a"), relation.String("b"))
}

// randomInstanceOver is randomInstance drawing every master cell, pattern
// constant and tableau constant from vals.
func randomInstanceOver(rng *rand.Rand, vals ...relation.Value) (*rule.Set, *master.Data, *fix.Region) {
	nR := 4 + rng.Intn(3)
	nM := 4 + rng.Intn(3)
	rNames := make([]string, nR)
	for i := range rNames {
		rNames[i] = fmt.Sprintf("A%d", i)
	}
	mNames := make([]string, nM)
	for i := range mNames {
		mNames[i] = fmt.Sprintf("M%d", i)
	}
	r := relation.StringSchema("R", rNames...)
	rm := relation.StringSchema("Rm", mNames...)

	rel := relation.NewRelation(rm)
	for i, n := 0, 2+rng.Intn(3); i < n; i++ {
		tup := make(relation.Tuple, nM)
		for j := range tup {
			tup[j] = vals[rng.Intn(len(vals))]
		}
		rel.MustAppend(tup)
	}

	sigma := rule.MustNewSet(r, rm)
	for i, n := 0, 2+rng.Intn(5); i < n; i++ {
		xLen := 1 + rng.Intn(2)
		perm := rng.Perm(nR)
		x := perm[:xLen]
		b := perm[xLen] // distinct from X by construction
		xm := make([]int, xLen)
		for j := range xm {
			xm[j] = rng.Intn(nM)
		}
		bm := rng.Intn(nM)
		// pattern over 0-2 attributes (any attrs, incl. X members)
		var pPos []int
		var pCells []pattern.Cell
		for _, p := range rng.Perm(nR)[:rng.Intn(3)] {
			pPos = append(pPos, p)
			v := vals[rng.Intn(len(vals))]
			switch rng.Intn(3) {
			case 0:
				pCells = append(pCells, pattern.Eq(v))
			case 1:
				pCells = append(pCells, pattern.Neq(v))
			default:
				pCells = append(pCells, pattern.Any)
			}
		}
		tp := pattern.MustTuple(pPos, pCells)
		ru, err := rule.New(fmt.Sprintf("r%d", i), r, rm, x, xm, b, bm, tp)
		if err != nil {
			continue
		}
		if err := sigma.Add(ru); err != nil {
			panic(err)
		}
	}

	// Region: 1-3 Z attributes, 1-2 rows constraining a subset of Z.
	zLen := 1 + rng.Intn(3)
	z := rng.Perm(nR)[:zLen]
	tc := pattern.NewTableau()
	for i, rows := 0, 1+rng.Intn(2); i < rows; i++ {
		var pos []int
		var cells []pattern.Cell
		for _, p := range z {
			if rng.Intn(2) == 0 {
				continue
			}
			pos = append(pos, p)
			v := vals[rng.Intn(len(vals))]
			switch rng.Intn(3) {
			case 0:
				cells = append(cells, pattern.Eq(v))
			case 1:
				cells = append(cells, pattern.Neq(v))
			default:
				cells = append(cells, pattern.Any)
			}
		}
		tc.Add(pattern.MustTuple(pos, cells))
	}
	reg := fix.MustRegion(z, tc)
	dm := master.MustNewForRules(rel, sigma)
	return sigma, dm, reg
}

// TestConsistencyCheckerMatchesOracle is the central property test of the
// §4 implementation: on hundreds of random instances, the Thm-4 closure
// checker and the exhaustive fix-space oracle must agree on both the
// consistency and the coverage problems.
func TestConsistencyCheckerMatchesOracle(t *testing.T) {
	iterations := 400
	if testing.Short() {
		iterations = 60
	}
	for seed := 0; seed < iterations; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		sigma, dm, reg := randomInstance(rng)
		c := analysis.NewChecker(sigma, dm)

		fast, err := c.Consistent(reg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		slow, err := oracle.Consistent(c.Sigma(), c.Master(), reg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if fast.OK != slow.OK {
			t.Fatalf("seed %d: consistency mismatch: checker=%v (%s) oracle=%v (%s)\nΣ:\n%s",
				seed, fast.OK, fast.Detail, slow.OK, slow.Detail, sigma)
		}

		fastC, err := c.CertainRegion(reg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		slowC, err := oracle.CertainRegion(c.Sigma(), c.Master(), reg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if fastC.OK != slowC.OK {
			t.Fatalf("seed %d: coverage mismatch: checker=%v (%s) oracle=%v (%s)\nΣ:\n%s",
				seed, fastC.OK, fastC.Detail, slowC.OK, slowC.Detail, sigma)
		}
	}
}

// TestConsistencyCheckerMatchesOracleWithNulls is the same agreement over a
// domain holding Null: master cells, rule patterns (nil, ≠ nil) and
// tableau rows all draw from {a, Null}. Null is then a constant Σ and Dm
// mention, so a checker that instantiated Null where the Thm 1 proof asks
// for a fresh constant would miss the marked tuples that hold neither.
func TestConsistencyCheckerMatchesOracleWithNulls(t *testing.T) {
	for seed := 0; seed < 200; seed++ {
		rng := rand.New(rand.NewSource(int64(2_000_000 + seed)))
		sigma, dm, reg := randomInstanceOver(rng, relation.String("a"), relation.Null)
		c := analysis.NewChecker(sigma, dm)
		for _, coverage := range []bool{false, true} {
			check, slow := c.Consistent, oracle.Consistent
			if coverage {
				check, slow = c.CertainRegion, oracle.CertainRegion
			}
			fast, err := check(reg)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			want, err := slow(sigma, dm, reg)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if fast.OK != want.OK {
				t.Fatalf("seed %d coverage=%v: checker=%v (%s) oracle=%v (%s)\nΣ:\n%s",
					seed, coverage, fast.OK, fast.Detail, want.OK, want.Detail, sigma)
			}
		}
	}
}

// TestDirectCheckerMatchesDirectOracle property-tests the Thm-5 SQL-style
// direct-fix checker against literal instantiation. Rules are forced into
// direct form (Xp ⊆ X) by restricting patterns to lhs attributes.
func TestDirectCheckerMatchesDirectOracle(t *testing.T) {
	iterations := 400
	if testing.Short() {
		iterations = 60
	}
	for seed := 0; seed < iterations; seed++ {
		rng := rand.New(rand.NewSource(int64(1_000_000 + seed)))
		sigma, dm, reg := randomDirectInstance(rng)
		c := analysis.NewChecker(sigma, dm)

		fast, err := c.DirectConsistent(reg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		slow, err := oracle.DirectConsistent(c.Sigma(), c.Master(), reg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if fast.OK != slow.OK {
			t.Fatalf("seed %d: direct consistency mismatch: checker=%v (%s) oracle=%v (%s)\nΣ:\n%s",
				seed, fast.OK, fast.Detail, slow.OK, slow.Detail, sigma)
		}

		fastC, err := c.DirectCertainRegion(reg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		slowC, err := oracle.DirectCertainRegion(c.Sigma(), c.Master(), reg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if fastC.OK != slowC.OK {
			t.Fatalf("seed %d: direct coverage mismatch: checker=%v (%s) oracle=%v (%s)\nΣ:\n%s",
				seed, fastC.OK, fastC.Detail, slowC.OK, slowC.Detail, sigma)
		}
	}
}

// randomDirectInstance is randomInstance with patterns restricted to lhs
// attributes (the direct-fix requirement Xp ⊆ X).
func randomDirectInstance(rng *rand.Rand) (*rule.Set, *master.Data, *fix.Region) {
	nR := 4 + rng.Intn(3)
	nM := 4 + rng.Intn(3)
	rNames := make([]string, nR)
	for i := range rNames {
		rNames[i] = fmt.Sprintf("A%d", i)
	}
	mNames := make([]string, nM)
	for i := range mNames {
		mNames[i] = fmt.Sprintf("M%d", i)
	}
	r := relation.StringSchema("R", rNames...)
	rm := relation.StringSchema("Rm", mNames...)

	vals := []string{"a", "b"}
	rel := relation.NewRelation(rm)
	for i, n := 0, 2+rng.Intn(3); i < n; i++ {
		tup := make(relation.Tuple, nM)
		for j := range tup {
			tup[j] = relation.String(vals[rng.Intn(len(vals))])
		}
		rel.MustAppend(tup)
	}

	sigma := rule.MustNewSet(r, rm)
	for i, n := 0, 2+rng.Intn(5); i < n; i++ {
		xLen := 1 + rng.Intn(2)
		perm := rng.Perm(nR)
		x := perm[:xLen]
		b := perm[xLen]
		xm := make([]int, xLen)
		for j := range xm {
			xm[j] = rng.Intn(nM)
		}
		bm := rng.Intn(nM)
		var pPos []int
		var pCells []pattern.Cell
		for _, p := range x {
			if rng.Intn(2) == 0 {
				continue
			}
			pPos = append(pPos, p)
			v := relation.String(vals[rng.Intn(len(vals))])
			if rng.Intn(2) == 0 {
				pCells = append(pCells, pattern.Eq(v))
			} else {
				pCells = append(pCells, pattern.Neq(v))
			}
		}
		tp := pattern.MustTuple(pPos, pCells)
		ru, err := rule.New(fmt.Sprintf("r%d", i), r, rm, x, xm, b, bm, tp)
		if err != nil {
			continue
		}
		if err := sigma.Add(ru); err != nil {
			panic(err)
		}
	}

	zLen := 1 + rng.Intn(3)
	z := rng.Perm(nR)[:zLen]
	tc := pattern.NewTableau()
	var pos []int
	var cells []pattern.Cell
	for _, p := range z {
		if rng.Intn(2) == 0 {
			continue
		}
		pos = append(pos, p)
		v := relation.String(vals[rng.Intn(len(vals))])
		switch rng.Intn(3) {
		case 0:
			cells = append(cells, pattern.Eq(v))
		case 1:
			cells = append(cells, pattern.Neq(v))
		default:
			cells = append(cells, pattern.Any)
		}
	}
	tc.Add(pattern.MustTuple(pos, cells))
	reg := fix.MustRegion(z, tc)
	dm := master.MustNewForRules(rel, sigma)
	return sigma, dm, reg
}
