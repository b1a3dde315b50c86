package rule_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/pattern"
	"repro/internal/relation"
	"repro/internal/rule"
)

// naiveClosure is the O(n²) fixpoint over raw (premise → rhs) pairs — the
// oracle the compiled engine must match exactly.
func naiveClosure(arity int, prems []relation.AttrSet, rhs []int, base relation.AttrSet) relation.AttrSet {
	out := base
	for changed := true; changed; {
		changed = false
		for i, prem := range prems {
			if out.Has(rhs[i]) {
				continue
			}
			if out.ContainsSet(prem) {
				out.Add(rhs[i])
				changed = true
			}
		}
	}
	return out
}

func randomProgram(rng *rand.Rand) (arity int, prems []relation.AttrSet, rhs []int) {
	arity = 2 + rng.Intn(9)
	n := rng.Intn(12)
	for i := 0; i < n; i++ {
		var prem relation.AttrSet
		for _, p := range rng.Perm(arity)[:rng.Intn(3)] {
			prem.Add(p)
		}
		prems = append(prems, prem)
		rhs = append(rhs, rng.Intn(arity))
	}
	return arity, prems, rhs
}

// TestCompiledClosureProperty: on random programs and bases, the compiled
// closure size and membership equal the naive fixpoint, with one scratch
// shared across all iterations (exercising epoch reuse and regrowth).
func TestCompiledClosureProperty(t *testing.T) {
	sc := rule.NewClosureScratch()
	for seed := 0; seed < 500; seed++ {
		rng := rand.New(rand.NewSource(int64(5_000_000 + seed)))
		arity, prems, rhs := randomProgram(rng)
		prog := rule.CompileClosure(arity, prems, rhs)
		for trial := 0; trial < 4; trial++ {
			var base relation.AttrSet
			for _, p := range rng.Perm(arity)[:rng.Intn(arity+1)] {
				base.Add(p)
			}
			want := naiveClosure(arity, prems, rhs, base)
			got := prog.Closure(base, nil, sc)
			if got != want.Len() {
				t.Fatalf("seed %d: closure size %d, want %d (base %v)", seed, got, want.Len(), base.Positions())
			}
			for a := 0; a < arity; a++ {
				if sc.Has(a) != want.Has(a) {
					t.Fatalf("seed %d: membership of %d is %v, want %v", seed, a, sc.Has(a), want.Has(a))
				}
			}
		}
	}
}

// TestCompiledGainAllProperty: GainAll's per-candidate sizes equal one
// naive closure per candidate, and the base state survives the trials
// (Has still reflects closure(base) afterwards).
func TestCompiledGainAllProperty(t *testing.T) {
	sc := rule.NewClosureScratch()
	for seed := 0; seed < 500; seed++ {
		rng := rand.New(rand.NewSource(int64(6_000_000 + seed)))
		arity, prems, rhs := randomProgram(rng)
		prog := rule.CompileClosure(arity, prems, rhs)
		var base relation.AttrSet
		for _, p := range rng.Perm(arity)[:rng.Intn(arity+1)] {
			base.Add(p)
		}
		baseWant := naiveClosure(arity, prems, rhs, base)
		baseLen := prog.Closure(base, nil, sc)
		gains := prog.GainAll(sc)
		if baseLen != baseWant.Len() {
			t.Fatalf("seed %d: base size %d, want %d", seed, baseLen, baseWant.Len())
		}
		for a := 0; a < arity; a++ {
			trial := base
			trial.Add(a)
			want := naiveClosure(arity, prems, rhs, trial).Len()
			if gains[a] != want {
				t.Fatalf("seed %d: gain of %d is %d, want %d", seed, a, gains[a], want)
			}
		}
		for a := 0; a < arity; a++ {
			if sc.Has(a) != baseWant.Has(a) {
				t.Fatalf("seed %d: post-GainAll membership of %d corrupted", seed, a)
			}
		}
	}
}

// TestCompiledExtendProperty: growing a held closure one attribute at a
// time with Extend — under a mask, with GainAll trials between the steps,
// as a greedy cover does — leaves exactly the closure of the base plus the
// attributes added, in size, membership and every later gain.
func TestCompiledExtendProperty(t *testing.T) {
	sc := rule.NewClosureScratch()
	for seed := 0; seed < 500; seed++ {
		rng := rand.New(rand.NewSource(int64(8_000_000 + seed)))
		arity, prems, rhs := randomProgram(rng)
		prog := rule.CompileClosure(arity, prems, rhs)
		off := make([]bool, len(prems))
		var keptPrems []relation.AttrSet
		var keptRHS []int
		for i := range off {
			if off[i] = rng.Intn(3) == 0; !off[i] {
				keptPrems = append(keptPrems, prems[i])
				keptRHS = append(keptRHS, rhs[i])
			}
		}
		var cur relation.AttrSet
		for _, p := range rng.Perm(arity)[:rng.Intn(arity)] {
			cur.Add(p)
		}
		size := prog.Closure(cur, off, sc)
		for _, a := range rng.Perm(arity)[:1+rng.Intn(arity)] {
			prog.GainAll(sc)
			cur.Add(a)
			size = prog.Extend(a, sc)
			want := naiveClosure(arity, keptPrems, keptRHS, cur)
			if size != want.Len() {
				t.Fatalf("seed %d: extended to %v, size %d, want %d", seed, cur.Positions(), size, want.Len())
			}
			for b := 0; b < arity; b++ {
				if sc.Has(b) != want.Has(b) {
					t.Fatalf("seed %d: extended to %v, membership of %d is %v", seed, cur.Positions(), b, sc.Has(b))
				}
			}
			gains := prog.GainAll(sc)
			for b := 0; b < arity; b++ {
				trial := cur
				trial.Add(b)
				if w := naiveClosure(arity, keptPrems, keptRHS, trial).Len(); gains[b] != w {
					t.Fatalf("seed %d: extended to %v, gain of %d is %d, want %d", seed, cur.Positions(), b, gains[b], w)
				}
			}
		}
	}
}

// TestSetCompileMatchesRules: a compiled Set reads premises as X ∪ Xp, and
// rule r of the program is rule r of the Set — the mask is aligned with
// Rules().
func TestSetCompileMatchesRules(t *testing.T) {
	r := relation.StringSchema("R", "A", "B", "C", "D")
	rm := relation.StringSchema("Rm", "MA", "MB", "MC", "MD")
	ruAB := rule.MustNew("ab", r, rm, []int{0}, []int{0}, 1, 1, pattern.Empty())
	ruBC := rule.MustNew("bc", r, rm, []int{1}, []int{1}, 2, 2,
		pattern.MustTuple([]int{3}, []pattern.Cell{pattern.EqStr("x")})) // premise B ∪ {D}
	sigma := rule.MustNewSet(r, rm, ruAB, ruBC)
	sc := rule.NewClosureScratch()

	prog := sigma.Compile()
	if got := prog.Closure(relation.NewAttrSet(0), nil, sc); got != 2 { // A → B; C needs D (pattern attr)
		t.Fatalf("closure(A) = %d, want 2", got)
	}
	if got := prog.Closure(relation.NewAttrSet(0, 3), nil, sc); got != 4 {
		t.Fatalf("closure(A,D) = %d, want 4", got)
	}
	if got := prog.Closure(relation.NewAttrSet(0, 3), []bool{false, true}, sc); got != 3 {
		t.Fatalf("closure(A,D) with bc masked = %d, want 3", got)
	}
	if got := prog.Closure(relation.NewAttrSet(0, 3), []bool{true, false}, sc); got != 2 {
		t.Fatalf("closure(A,D) with ab masked = %d, want 2", got)
	}
}

// TestCompiledMaskProperty: a program closed under a mask is the program
// compiled from the kept pairs alone — size, membership and every gain —
// including masked empty-premise rules, with ONE scratch serving different
// masks of the same program back to back (the Suggest path: one Σ program,
// a pooled scratch, a fresh mask per call).
func TestCompiledMaskProperty(t *testing.T) {
	sc, oracleSc := rule.NewClosureScratch(), rule.NewClosureScratch()
	for seed := 0; seed < 500; seed++ {
		rng := rand.New(rand.NewSource(int64(7_000_000 + seed)))
		arity, prems, rhs := randomProgram(rng)
		prog := rule.CompileClosure(arity, prems, rhs)
		for trial := 0; trial < 4; trial++ {
			off := make([]bool, len(prems))
			var keptPrems []relation.AttrSet
			var keptRHS []int
			for i := range off {
				if off[i] = rng.Intn(3) == 0; !off[i] {
					keptPrems = append(keptPrems, prems[i])
					keptRHS = append(keptRHS, rhs[i])
				}
			}
			oracle := rule.CompileClosure(arity, keptPrems, keptRHS)
			var base relation.AttrSet
			for _, p := range rng.Perm(arity)[:rng.Intn(arity+1)] {
				base.Add(p)
			}
			if got, want := prog.Closure(base, off, sc), oracle.Closure(base, nil, oracleSc); got != want {
				t.Fatalf("seed %d: masked closure size %d, kept-pairs program %d (off %v)", seed, got, want, off)
			}
			for a := 0; a < arity; a++ {
				if sc.Has(a) != oracleSc.Has(a) {
					t.Fatalf("seed %d: masked membership of %d is %v (off %v)", seed, a, sc.Has(a), off)
				}
			}
			got, want := prog.GainAll(sc), oracle.GainAll(oracleSc)
			for a := 0; a < arity; a++ {
				if got[a] != want[a] {
					t.Fatalf("seed %d: masked gain of %d is %d, want %d (off %v)", seed, a, got[a], want[a], off)
				}
				if sc.Has(a) != oracleSc.Has(a) {
					t.Fatalf("seed %d: post-GainAll membership of %d corrupted under mask", seed, a)
				}
			}
		}
	}
}

// TestCompiledScratchSharedAcrossPrograms: one scratch serves programs of
// different sizes back to back.
func TestCompiledScratchSharedAcrossPrograms(t *testing.T) {
	sc := rule.NewClosureScratch()
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 50; i++ {
		arity, prems, rhs := randomProgram(rng)
		prog := rule.CompileClosure(arity, prems, rhs)
		var base relation.AttrSet
		base.Add(rng.Intn(arity))
		want := naiveClosure(arity, prems, rhs, base).Len()
		if got := prog.Closure(base, nil, sc); got != want {
			t.Fatalf("iteration %d (%s): closure %d, want %d", i, fmt.Sprintf("arity=%d", arity), got, want)
		}
	}
}
