package suggest_test

import (
	"math/rand"
	"testing"

	"repro/internal/oracle"
	"repro/internal/rule"
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
		want := oracle.ApplicableRules(d.Sigma(), d.Master(), tup, zSet)
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
		want := oracle.Suggest(d.Sigma(), d.Master(), tup, zSet)
		if !sameInts(got.S, want) {
			t.Fatalf("seed %d: S diverges: compiled %v, naive %v", seed, got.S, want)
		}
		if !sameRuleSets(d.ApplicableRules(tup, zSet), oracle.ApplicableRules(d.Sigma(), d.Master(), tup, zSet)) {
			t.Fatalf("seed %d: refined sets diverge", seed)
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
		cur := zSet
		cur.AddAll(s)
		want := oracle.StructuralClosure(d.Sigma(), off, cur).Len() == arity
		if got := d.IsSuggestionFast(zSet, s); got != want {
			t.Fatalf("seed %d: IsSuggestionFast=%v, naive=%v", seed, got, want)
		}
	}
}
