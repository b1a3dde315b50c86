package suggest_test

import (
	"math/rand"
	"testing"

	"repro/internal/rule"
	"repro/internal/suggest"
)

// These tests pin the tentpole equivalences: the compiled closure engine
// and the postings-based master compatibility must be drop-in replacements
// for the naive implementations — byte-identical Suggest, ApplicableRules
// and CompCRegions outputs on randomized (Σ, Dm).

func sameRuleSets(a, b *rule.Set) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		ra, rb := a.Rule(i), b.Rule(i)
		if ra.Name() != rb.Name() || ra.String() != rb.String() || ra.Confidence() != rb.Confidence() {
			return false
		}
		if !ra.Pattern().Equal(rb.Pattern()) {
			return false
		}
	}
	return true
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestApplicableRulesCompiledVsNaiveProperty: Σ_t[Z] derived through the
// inverted postings equals the Dm-scan derivation, rule for rule.
func TestApplicableRulesCompiledVsNaiveProperty(t *testing.T) {
	iterations := 400
	if testing.Short() {
		iterations = 60
	}
	for seed := 0; seed < iterations; seed++ {
		rng := rand.New(rand.NewSource(int64(10_000_000 + seed)))
		d, tup, zSet := randomSuggestInstance(rng)
		got := d.ApplicableRules(tup, zSet)
		want := d.ApplicableRulesNaive(tup, zSet)
		if !sameRuleSets(got, want) {
			t.Fatalf("seed %d: refined sets diverge\ncompiled:\n%s\nnaive:\n%s", seed, got, want)
		}
	}
}

// TestSuggestCompiledVsNaiveProperty: procedure Suggest — a mask over the
// one Σ program — returns byte-identical suggestions to the naive path,
// which materialises every ϕ+ and runs the fixpoint over them; and the
// Σ_t[Z] behind both is the same rules (kept rules, ϕ+ patterns, weights).
func TestSuggestCompiledVsNaiveProperty(t *testing.T) {
	iterations := 400
	if testing.Short() {
		iterations = 60
	}
	for seed := 0; seed < iterations; seed++ {
		rng := rand.New(rand.NewSource(int64(11_000_000 + seed)))
		d, tup, zSet := randomSuggestInstance(rng)
		got := d.Suggest(tup, zSet)
		want := d.SuggestNaive(tup, zSet)
		if !sameInts(got.S, want.S) {
			t.Fatalf("seed %d: S diverges: compiled %v, naive %v", seed, got.S, want.S)
		}
		if !sameRuleSets(d.ApplicableRules(tup, zSet), d.ApplicableRulesNaive(tup, zSet)) {
			t.Fatalf("seed %d: refined sets diverge", seed)
		}
	}
}

// TestCompCRegionsCompiledVsNaiveProperty: region derivation on the
// compiled engine returns the same candidates (Z, quality, support) in
// the same order.
func TestCompCRegionsCompiledVsNaiveProperty(t *testing.T) {
	iterations := 150
	if testing.Short() {
		iterations = 30
	}
	for seed := 0; seed < iterations; seed++ {
		rng := rand.New(rand.NewSource(int64(12_000_000 + seed)))
		d, _, _ := randomSuggestInstance(rng)
		got := d.CompCRegions()
		want := d.CompCRegionsNaive()
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d candidates vs %d", seed, len(got), len(want))
		}
		for i := range got {
			if !sameInts(got[i].Z, want[i].Z) || got[i].Quality != want[i].Quality || got[i].Support != want[i].Support {
				t.Fatalf("seed %d: candidate %d diverges: %+v vs %+v", seed, i, got[i], want[i])
			}
		}
	}
}

// TestIsSuggestionFastMatchesNaiveClosure: the Suggest+ reuse test on the
// Σ program under the snapshot's mask agrees with the naive structural
// closure.
func TestIsSuggestionFastMatchesNaiveClosure(t *testing.T) {
	for seed := 0; seed < 200; seed++ {
		rng := rand.New(rand.NewSource(int64(13_000_000 + seed)))
		d, _, zSet := randomSuggestInstance(rng)
		arity := d.Sigma().Schema().Arity()
		s := rng.Perm(arity)[:rng.Intn(arity+1)]
		off := make([]bool, d.Sigma().Len())
		for i, ru := range d.Sigma().Rules() {
			off[i] = !d.Master().PatternSupported(ru)
		}
		cur := zSet.Clone()
		cur.AddAll(s)
		want := suggest.StructuralClosure(d.Sigma(), off, cur).Len() == arity
		if got := d.IsSuggestionFast(zSet, s); got != want {
			t.Fatalf("seed %d: IsSuggestionFast=%v, naive=%v", seed, got, want)
		}
	}
}
