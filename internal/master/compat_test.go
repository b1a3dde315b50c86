package master

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/pattern"
	"repro/internal/relation"
	"repro/internal/rule"
)

func randomCompatInstance(rng *rand.Rand) (*Data, *rule.Set, relation.Tuple, relation.AttrSet) {
	nR := 3 + rng.Intn(4)
	nM := 3 + rng.Intn(4)
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

	vals := []string{"a", "b", "c"}
	rel := relation.NewRelation(rm)
	for i, n := 0, 1+rng.Intn(8); i < n; i++ {
		tup := make(relation.Tuple, nM)
		for j := range tup {
			tup[j] = relation.String(vals[rng.Intn(len(vals))])
		}
		rel.MustAppend(tup)
	}

	sigma := rule.MustNewSet(r, rm)
	for i, n := 0, 1+rng.Intn(5); i < n; i++ {
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
		for _, p := range rng.Perm(nR)[:rng.Intn(3)] {
			pPos = append(pPos, p)
			cell := pattern.Eq(relation.String(vals[rng.Intn(len(vals))]))
			if rng.Intn(3) == 0 {
				cell = pattern.Neq(cell.Val)
			}
			pCells = append(pCells, cell)
		}
		ru, err := rule.New(fmt.Sprintf("r%d", i), r, rm, x, xm, b, rng.Intn(nM), pattern.MustTuple(pPos, pCells))
		if err != nil {
			continue
		}
		sigma.Add(ru)
	}

	t := make(relation.Tuple, nR)
	for i := range t {
		if rng.Intn(6) == 0 {
			t[i] = relation.String("zz") // never in the master: exercises the uninterned miss
		} else {
			t[i] = relation.String(vals[rng.Intn(len(vals))])
		}
	}
	zSet := relation.NewAttrSet(rng.Perm(nR)[:rng.Intn(nR+1)]...)
	return MustNewForRules(rel, sigma), sigma, t, zSet
}

// TestCompatibleExistsProperty: on randomized (Σ, Dm, t, Z) the indexed
// compatibility test agrees with the naive Dm scan for every rule, across
// full, partial and empty validated lhs shapes.
func TestCompatibleExistsProperty(t *testing.T) {
	for seed := 0; seed < 600; seed++ {
		rng := rand.New(rand.NewSource(int64(7_000_000 + seed)))
		d, sigma, tup, zSet := randomCompatInstance(rng)
		for _, ru := range sigma.Rules() {
			got := d.CompatibleExists(ru, tup, zSet)
			want := d.compatibleScan(ru, tup, zSet)
			if got != want {
				t.Fatalf("seed %d rule %s: CompatibleExists=%v, scan=%v (z=%v)",
					seed, ru.Name(), got, want, zSet.Positions())
			}
		}
	}
}

// TestPatternSupportedProperty: PatternSupported agrees with the naive
// per-rule Dm scan, and so does the support count behind it.
func TestPatternSupportedProperty(t *testing.T) {
	for seed := 0; seed < 300; seed++ {
		rng := rand.New(rand.NewSource(int64(8_000_000 + seed)))
		d, sigma, _, _ := randomCompatInstance(rng)
		for _, ru := range sigma.Rules() {
			got := d.PatternSupported(ru)
			want := false
			for _, row := range d.rows.All() {
				if patternCompatible(ru, row, d.syms) {
					want = true
					break
				}
			}
			if got != want {
				t.Fatalf("seed %d rule %s: PatternSupported=%v, scan=%v", seed, ru.Name(), got, want)
			}
		}
	}

	// A rule whose lhs carries no pattern cell — none at all, a wildcard, or
	// one on an attribute outside the lhs — gets its count |Dm| without a
	// scan; it must be the scanned count at every size, built and after an
	// arena round trip.
	r := relation.StringSchema("R", "A", "B", "C")
	rm := relation.StringSchema("Rm", "MA", "MB", "MC")
	b := relation.String("b")
	sigma := rule.MustNewSet(r, rm,
		rule.MustNew("none", r, rm, []int{0}, []int{0}, 2, 2, pattern.Empty()),
		rule.MustNew("wildcard", r, rm, []int{0}, []int{0}, 2, 2, pattern.MustTuple([]int{0}, []pattern.Cell{pattern.Any})),
		rule.MustNew("off-lhs", r, rm, []int{0}, []int{0}, 2, 2, pattern.MustTuple([]int{1}, []pattern.Cell{pattern.Eq(b)})),
		rule.MustNew("on-lhs", r, rm, []int{0, 1}, []int{0, 1}, 2, 2, pattern.MustTuple([]int{1}, []pattern.Cell{pattern.Eq(b)})))
	for _, n := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		rel := relation.NewRelation(rm)
		for i := range n {
			rel.MustAppend(relation.Tuple{relation.String(fmt.Sprint(i)), relation.String([]string{"a", "b"}[i%2]), relation.Null})
		}
		built := MustNewForRules(rel, sigma)
		var img bytes.Buffer
		if err := built.SaveArena(&img, sigma); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		loaded, err := LoadArenaBytes(img.Bytes(), sigma)
		if err != nil {
			t.Fatalf("n=%d: the image does not load: %v", n, err)
		}
		for _, ru := range sigma.Rules() {
			want := 0
			for _, row := range built.rows.All() {
				if patternCompatible(ru, row, built.syms) {
					want++
				}
			}
			for name, d := range map[string]*Data{"built": built, "loaded": loaded} {
				if got := d.supported[d.plan.pos[ru]]; got != want {
					t.Fatalf("n=%d rule %s %s: count %d, the scan %d", n, ru.Name(), name, got, want)
				}
			}
		}
	}
}

// TestCompatibleDegeneratePostings forces the degenerate shape — every
// master tuple shares one value in the probed column, so the best one-column
// bucket covers all of Dm — and checks the adaptive policy falls back to the
// scan and still answers correctly.
func TestCompatibleDegeneratePostings(t *testing.T) {
	r := relation.StringSchema("R", "A", "B", "C")
	rm := relation.StringSchema("Rm", "MA", "MB", "MC")
	rel := relation.NewRelation(rm)
	for i := 0; i < 16; i++ {
		rel.MustAppend(relation.Tuple{
			relation.String("same"), // degenerate column: one distinct value
			relation.String(fmt.Sprintf("b%d", i)),
			relation.String(fmt.Sprintf("c%d", i)),
		})
	}
	// lhs (A, B) so Z = {A} partially validates; A's bucket is all of Dm.
	ru := rule.MustNew("deg", r, rm, []int{0, 1}, []int{0, 1}, 2, 2, pattern.Empty())
	sigma := rule.MustNewSet(r, rm, ru)
	d := MustNewForRules(rel, sigma)

	tup := relation.Tuple{relation.String("same"), relation.String("b3"), relation.String("x")}
	zSet := relation.NewAttrSet(0)

	found, scanned := d.compatible(ru, tup, zSet)
	if !scanned {
		t.Fatal("a degenerate bucket must fall back to the scan")
	}
	if !found || found != d.compatibleScan(ru, tup, zSet) {
		t.Fatalf("fallback answer %v disagrees with the scan", found)
	}

	// A selective probe on B (a bucket of one id) must NOT scan.
	zSet = relation.NewAttrSet(1)
	found, scanned = d.compatible(ru, tup, zSet)
	if scanned {
		t.Fatal("a selective bucket must not fall back to the scan")
	}
	if !found {
		t.Fatal("selective probe must find the matching master tuple")
	}

	// A miss on a never-interned value short-circuits without scanning.
	tup[1] = relation.String("nope")
	found, scanned = d.compatible(ru, tup, zSet)
	if found || scanned {
		t.Fatalf("uninterned probe: found=%v scanned=%v, want false/false", found, scanned)
	}
}
