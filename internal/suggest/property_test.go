package suggest_test

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/relation"
	"repro/internal/suggest"
)

// randomSuggestInstance is RandomInstance behind a Deriver.
func randomSuggestInstance(rng *rand.Rand) (*suggest.Deriver, relation.Tuple, relation.AttrSet) {
	sigma, dm, t, zSet := suggest.RandomInstance(rng)
	return suggest.NewDeriver(sigma, dm), t, zSet
}

// TestSuggestInvariantsProperty: on random instances, Suggest's output is
// disjoint from Z and
//
//	(i)   passes IsSuggestion — the paper's test over Σ_t[Z], which knows
//	      nothing of the grounding hints;
//	(ii)  is minimal under the mask Suggest used: regrown from itself it
//	      comes back unchanged, and regrown from itself minus any one
//	      attribute it has to add something back;
//	(iii) is the structural suggestion whenever every rule's lhs hits Dm at
//	      the tuple's current values — hints never change the questions for
//	      an input the master covers.
func TestSuggestInvariantsProperty(t *testing.T) {
	iterations := 400
	if testing.Short() {
		iterations = 60
	}
	covered := 0
	for seed := 0; seed < iterations; seed++ {
		rng := rand.New(rand.NewSource(int64(3_000_000 + seed)))
		d, tup, zSet := randomSuggestInstance(rng)

		sug := d.Suggest(tup, zSet)
		for _, p := range sug.S {
			if zSet.Has(p) {
				t.Fatalf("seed %d: suggestion overlaps Z at %d", seed, p)
			}
		}
		if !d.IsSuggestion(tup, zSet, sug.S) {
			t.Fatalf("seed %d: Suggest output fails IsSuggestion", seed)
		}
		if again := d.SuggestFrom(tup, zSet, sug.S).S; !slices.Equal(again, sug.S) {
			t.Fatalf("seed %d: suggestion %v regrown from itself is %v", seed, sug.S, again)
		}
		for i := range sug.S {
			trimmed := slices.Delete(slices.Clone(sug.S), i, i+1)
			regrown := relation.NewAttrSet(d.SuggestFrom(tup, zSet, trimmed).S...)
			if relation.NewAttrSet(trimmed...).ContainsSet(regrown) {
				t.Fatalf("seed %d: suggestion %v not minimal (attr %d removable)",
					seed, sug.S, sug.S[i])
			}
		}
		var all relation.AttrSet
		for p := range tup {
			all.Add(p)
		}
		grounded := true
		for _, ru := range d.Sigma().Rules() {
			grounded = grounded && d.Master().CompatibleExists(ru, tup, all)
		}
		if grounded {
			covered++
			if want := d.SuggestStructural(tup, zSet).S; !slices.Equal(sug.S, want) {
				t.Fatalf("seed %d: every premise hits Dm, yet Suggest = %v, structural = %v", seed, sug.S, want)
			}
		}
	}
	if covered == 0 {
		t.Fatal("no instance had every premise in Dm: property (iii) went unchecked")
	}
}

// TestApplicableRulesInvariantsProperty: every refined rule has an
// unvalidated rhs and a tuple-compatible pattern on Z.
func TestApplicableRulesInvariantsProperty(t *testing.T) {
	for seed := 0; seed < 200; seed++ {
		rng := rand.New(rand.NewSource(int64(4_000_000 + seed)))
		d, tup, zSet := randomSuggestInstance(rng)
		refined := d.ApplicableRules(tup, zSet)
		for _, ru := range refined.Rules() {
			if zSet.Has(ru.RHS()) {
				t.Fatalf("seed %d: refined rule %s writes a validated attribute", seed, ru.Name())
			}
			tp := ru.Pattern()
			for i := 0; i < tp.Len(); i++ {
				pos, cell := tp.CellAt(i)
				if zSet.Has(pos) && !cell.Matches(tup[pos]) {
					t.Fatalf("seed %d: refined rule %s pattern rejects the validated tuple", seed, ru.Name())
				}
			}
		}
	}
}
