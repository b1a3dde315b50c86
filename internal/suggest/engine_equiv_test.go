package suggest_test

import (
	"math/rand"
	"testing"

	"repro/internal/master"
	"repro/internal/oracle"
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
// Half the seeds weight Σ and plant a pair of attributes that determine
// each other with unequal confidences (RandomInstance); on at least 40 of
// the 400 (49 today) the confidence tie-break must have changed the
// suggestion, or the weighted branch went under-tested. -short runs every
// seed too (~40 ms).
func TestSuggestCompiledVsNaiveProperty(t *testing.T) {
	const iterations = 400
	tieBroken := 0
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
		if unweighted := unweightedDeriver(d).Suggest(tup, zSet); !sameInts(got.S, unweighted.S) {
			tieBroken++
		}
	}
	t.Logf("%d of %d suggestions depended on their Σ's weights", tieBroken, iterations)
	if tieBroken < 40 {
		t.Fatalf("only %d of %d suggestions depended on their Σ's weights, want at least 40: the weighted tie-break went under-tested", tieBroken, iterations)
	}
}

// unweightedDeriver is d over the same Σ and Dm with every confidence 1.
func unweightedDeriver(d *suggest.Deriver) *suggest.Deriver {
	sigma := d.Sigma()
	rules := make([]*rule.Rule, sigma.Len())
	for i, ru := range sigma.Rules() {
		rules[i], _ = ru.WithConfidence(1) // 1 is always a valid confidence
	}
	plain := rule.MustNewSet(sigma.Schema(), sigma.MasterSchema(), rules...)
	return suggest.NewDeriver(plain, master.MustNewForRules(d.Master().Relation(), plain))
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
