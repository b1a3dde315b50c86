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

// compatibleScan decides condition (c) by the naive O(|Dm|) scan: the
// reference CompatibleExists is property-tested against here
// (internal/suggest holds it to a scan over materialized values).
func (d *Data) compatibleScan(ru *rule.Rule, t relation.Tuple, zSet relation.AttrSet) bool {
	x, xm := ru.LHS(), ru.LHSM()
	ids := make([]uint32, len(x))
	if !d.validatedIDs(x, t, zSet, ids) {
		return false
	}
	for _, row := range d.rows.All() {
		if agreeOn(row, x, xm, zSet, ids) && patternCompatible(ru, row, d.syms) {
			return true
		}
	}
	return false
}

// validatedIDs looks up, into ids[i], the id of t's value on each validated
// x[i]; false when the symbol table does not know one of them, which then
// occurs in no master tuple.
func (d *Data) validatedIDs(x []int, t relation.Tuple, zSet relation.AttrSet, ids []uint32) bool {
	for i, p := range x {
		if zSet.Has(p) {
			var ok bool
			if ids[i], ok = d.syms.ID(t[p]); !ok {
				return false
			}
		}
	}
	return true
}

// checkCompatible holds CompatibleExists to compatibleScan for the probe
// tup under every validated subset of ru's lhs, and reports the answer for
// Z = zSet.
func checkCompatible(t *testing.T, ctx string, d *Data, ru *rule.Rule, tup relation.Tuple, zSet relation.AttrSet) bool {
	t.Helper()
	x := ru.LHS()
	for mask := 0; mask < 1<<len(x); mask++ {
		var z relation.AttrSet
		for i, p := range x {
			if mask&(1<<i) != 0 {
				z.Add(p)
			}
		}
		if got, want := d.CompatibleExists(ru, tup, z), d.compatibleScan(ru, tup, z); got != want {
			t.Fatalf("%s: CompatibleExists(%v, Z=%v) = %v, the scan %v", ctx, tup, z, got, want)
		}
	}
	return d.CompatibleExists(ru, tup, zSet)
}

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
		// Up to three lhs attributes, so that a partly validated lhs can
		// have two validated cells and the walked bucket's rows must be
		// checked on the one it is not keyed on.
		xLen := 1 + rng.Intn(min(3, nR-1))
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

// TestCompatibleDegeneratePostings builds the degenerate shape — every
// master tuple shares one value in the probed column, so the best one-column
// bucket is all of Dm — and holds the walk to the scan on it, on a selective
// bucket, and on a never-interned value.
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
	if !checkCompatible(t, "degenerate bucket", d, ru, tup, relation.NewAttrSet(0)) {
		t.Fatal("the degenerate bucket must yield a compatible tuple")
	}
	// A selective probe on B: a bucket of one id.
	if !checkCompatible(t, "selective bucket", d, ru, tup, relation.NewAttrSet(1)) {
		t.Fatal("selective probe must find the matching master tuple")
	}
	// A never-interned value matches nothing, whichever bucket is walked.
	tup[1] = relation.String("nope")
	if checkCompatible(t, "never-interned value", d, ru, tup, relation.NewAttrSet(1)) {
		t.Fatal("a never-interned value found a compatible tuple")
	}
}
