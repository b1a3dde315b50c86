package suggest

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/master"
	"repro/internal/oracle"
	"repro/internal/pattern"
	"repro/internal/relation"
	"repro/internal/rule"
)

// White-box equivalence tests for the pieces the external property tests
// cannot reach: the naive structural closure vs the compiled engine over
// real rule sets, the pattern-support scan vs the precomputed counts, and
// the oracle's region growth vs grow.

// RandomInstance builds a small random (Σ, Dm, t, Z) over a tiny value
// domain, mirroring the analysis package's generator. It is exported for
// the external property tests, which build their Deriver on it. About half
// the seeds weight Σ as the miner does: each rule gets a confidence from
// {0.5, 0.75, 1}, so that confidence masses both tie and differ, and a
// pair of attributes outside Z that determine each other is planted with
// unequal confidences, so that validating either one gains the same and
// Suggest's weighted tie-break decides between them. The weights and the
// pair are drawn last, so every other part of a seed's instance is the
// unweighted generator's.
func RandomInstance(rng *rand.Rand) (*rule.Set, *master.Data, relation.Tuple, relation.AttrSet) {
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

	var rules []*rule.Rule
	for i, n := 0, 2+rng.Intn(5); i < n; i++ {
		xLen := 1 + rng.Intn(2)
		perm := rng.Perm(nR)
		x := perm[:xLen]
		b := perm[xLen]
		xm := make([]int, xLen)
		for j := range xm {
			xm[j] = rng.Intn(nM)
		}
		var pPos []int
		var pCells []pattern.Cell
		for _, p := range rng.Perm(nR)[:rng.Intn(2)] {
			pPos = append(pPos, p)
			pCells = append(pCells, pattern.Eq(relation.String(vals[rng.Intn(len(vals))])))
		}
		ru, err := rule.New(fmt.Sprintf("r%d", i), r, rm, x, xm, b, rng.Intn(nM), pattern.MustTuple(pPos, pCells))
		if err != nil {
			continue
		}
		rules = append(rules, ru)
	}

	t := make(relation.Tuple, nR)
	for i := range t {
		t[i] = relation.String(vals[rng.Intn(len(vals))])
	}
	zSet := relation.NewAttrSet(rng.Perm(nR)[:1+rng.Intn(nR-1)]...)
	if rng.Intn(2) == 0 {
		weights := []float64{0.5, 0.75, 1}
		for i, ru := range rules {
			// Every weight drawn lies in (0, 1], so WithConfidence cannot fail.
			rules[i], _ = ru.WithConfidence(weights[rng.Intn(3)])
		}
		var out []int
		for a := range nR {
			if !zSet.Has(a) {
				out = append(out, a)
			}
		}
		if len(out) >= 2 {
			rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
			p, q := out[0], out[1]
			cols, w := rng.Perm(nM), rng.Perm(len(weights))
			pq := rule.MustNew("pq", r, rm, []int{p}, []int{cols[0]}, q, cols[1], pattern.Empty())
			qp := rule.MustNew("qp", r, rm, []int{q}, []int{cols[1]}, p, cols[0], pattern.Empty())
			pq, _ = pq.WithConfidence(weights[w[0]])
			qp, _ = qp.WithConfidence(weights[w[1]])
			rules = append(rules, pq, qp)
		}
	}
	sigma := rule.MustNewSet(r, rm, rules...)
	return sigma, master.MustNewForRules(rel, sigma), t, zSet
}

func randomInternalInstance(rng *rand.Rand) (*rule.Set, *master.Data) {
	nR := 4 + rng.Intn(4)
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
	for i, n := 0, 1+rng.Intn(5); i < n; i++ {
		tup := make(relation.Tuple, nM)
		for j := range tup {
			tup[j] = relation.String(vals[rng.Intn(len(vals))])
		}
		rel.MustAppend(tup)
	}

	sigma := rule.MustNewSet(r, rm)
	for i, n := 0, 2+rng.Intn(6); i < n; i++ {
		xLen := 1 + rng.Intn(2)
		perm := rng.Perm(nR)
		x := perm[:xLen]
		b := perm[xLen]
		xm := make([]int, xLen)
		for j := range xm {
			xm[j] = rng.Intn(nM)
		}
		var pPos []int
		var pCells []pattern.Cell
		for _, p := range rng.Perm(nR)[:rng.Intn(2)] {
			pPos = append(pPos, p)
			pCells = append(pCells, pattern.Eq(relation.String(vals[rng.Intn(len(vals))])))
		}
		ru, err := rule.New(fmt.Sprintf("r%d", i), r, rm, x, xm, b, rng.Intn(nM), pattern.MustTuple(pPos, pCells))
		if err != nil {
			continue
		}
		sigma.Add(ru)
	}
	return sigma, master.MustNewForRules(rel, sigma)
}

// TestStructuralClosureVsCompiledProperty: the compiled Σ program under a
// snapshot's mask (exactly as a view runs it) agrees with the naive
// fixpoint on size and membership for random bases.
func TestStructuralClosureVsCompiledProperty(t *testing.T) {
	sc := rule.NewClosureScratch()
	for seed := 0; seed < 400; seed++ {
		rng := rand.New(rand.NewSource(int64(14_000_000 + seed)))
		sigma, dm := randomInternalInstance(rng)
		off := unsupported(sigma, dm)
		prog := sigma.Compile()
		arity := sigma.Schema().Arity()
		for trial := 0; trial < 4; trial++ {
			zSet := relation.NewAttrSet(rng.Perm(arity)[:rng.Intn(arity+1)]...)
			want := oracle.StructuralClosure(sigma, off, zSet)
			if got := prog.Closure(zSet, off, sc); got != want.Len() {
				t.Fatalf("seed %d: compiled closure %d, naive %d (z=%v)", seed, got, want.Len(), zSet.Positions())
			}
			for a := 0; a < arity; a++ {
				if sc.Has(a) != want.Has(a) {
					t.Fatalf("seed %d: membership of %d diverges", seed, a)
				}
			}
		}
	}
}

// TestComputeSupportVsScanProperty: the snapshot mask read from the
// pattern-support counts is the complement of the naive masterSupports
// scan.
func TestComputeSupportVsScanProperty(t *testing.T) {
	for seed := 0; seed < 300; seed++ {
		rng := rand.New(rand.NewSource(int64(15_000_000 + seed)))
		sigma, dm := randomInternalInstance(rng)
		off := unsupported(sigma, dm)
		for i, ru := range sigma.Rules() {
			if want := oracle.MasterSupports(dm, ru); off[i] == want {
				t.Fatalf("seed %d rule %s: masked %v, scan support %v", seed, ru.Name(), off[i], want)
			}
		}
	}
}

// TestMasterCompatibleVsScanProperty: the production condition-(c) path
// (postings) equals the suggest-side naive scan oracle for every rule on
// randomized instances — the suggest-layer twin of the master package's
// TestCompatibleExistsProperty.
func TestMasterCompatibleVsScanProperty(t *testing.T) {
	for seed := 0; seed < 300; seed++ {
		rng := rand.New(rand.NewSource(int64(16_000_000 + seed)))
		sigma, dm := randomInternalInstance(rng)
		arity := sigma.Schema().Arity()
		tup := make(relation.Tuple, arity)
		for i := range tup {
			tup[i] = relation.String([]string{"a", "b", "zz"}[rng.Intn(3)])
		}
		zSet := relation.NewAttrSet(rng.Perm(arity)[:rng.Intn(arity+1)]...)
		for _, ru := range sigma.Rules() {
			got := dm.CompatibleExists(ru, tup, zSet)
			want := oracle.MasterCompatible(dm, ru, tup, zSet)
			if got != want {
				t.Fatalf("seed %d rule %s: postings %v, scan %v", seed, ru.Name(), got, want)
			}
		}
	}
}

// TestCompCRegionsCompiledVsNaiveProperty: region growth — grow on the
// compiled engine under the snapshot's mask, keeping the free attributes —
// returns the same Z as the oracle's naive growth, on every seed
// CompCRegions tries: the free attributes, and free ∪ {a} for each
// attribute a rule reads. Growth is the only step of region derivation
// that the two engines do not share.
func TestCompCRegionsCompiledVsNaiveProperty(t *testing.T) {
	iterations := 150
	if testing.Short() {
		iterations = 30
	}
	for seed := 0; seed < iterations; seed++ {
		rng := rand.New(rand.NewSource(int64(12_000_000 + seed)))
		sigma, dm, _, _ := RandomInstance(rng)
		d := NewDeriver(sigma, dm).Pin()
		sc := d.getScratch()
		free := sigma.FreeAttrs()
		seeds := []relation.AttrSet{free}
		for _, a := range sigma.LHS().Union(sigma.PatternAttrs()).Positions() {
			s := free
			s.Add(a)
			seeds = append(seeds, s)
		}
		for _, z := range seeds {
			got := free.Union(d.grow(sc, d.off, free, z, nil)).Positions()
			want := oracle.GrowAndMinimize(sigma, dm, z)
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d: growth from %v diverges: compiled %v, naive %v", seed, z.Positions(), got, want)
			}
		}
	}
}
