package suggest_test

import (
	"testing"

	"repro/internal/master"
	"repro/internal/oracle"
	"repro/internal/relation"
	"repro/internal/suggest"
)

// Weighted rule sets break Suggest's gain ties by confidence mass. Two
// mutually-determining attributes (p → q and q → p) tie on closure gain
// — either alone covers both — so the suggestion hinges entirely on the
// tie-break: unweighted picks the first index (p), weighted picks the
// attribute whose dependent rule carries more mined confidence (q).
func weightedDeriver(t *testing.T, dsl string) *suggest.Deriver {
	t.Helper()
	r := relation.StringSchema("R", "p", "q")
	rm := relation.StringSchema("Rm", "p", "q")
	sigma, err := parseRules(r, rm, dsl)
	if err != nil {
		t.Fatal(err)
	}
	masterRel := relation.NewRelation(rm)
	masterRel.MustAppend(
		relation.Tuple{relation.String("p1"), relation.String("q1")},
		relation.Tuple{relation.String("p2"), relation.String("q2")},
	)
	dm, err := master.NewForRules(masterRel, sigma)
	if err != nil {
		t.Fatal(err)
	}
	return suggest.NewDeriver(sigma, dm)
}

func TestSuggestWeightedTieBreak(t *testing.T) {
	tup := relation.Tuple{relation.String("p1"), relation.String("q1")}

	// Unweighted: the tie goes to the lower index, p.
	d := weightedDeriver(t, `
rule r1: (p ; p) -> (q ; q)
rule r2: (q ; q) -> (p ; p)
`)
	got := d.Suggest(tup, relation.AttrSet{})
	if len(got.S) != 1 || got.S[0] != 0 {
		t.Fatalf("unweighted suggestion = %v, want [p]", got.S)
	}

	// Weighted: r2 (premise q) carries more confidence than r1 (premise
	// p), so the tie goes to q.
	d = weightedDeriver(t, `
rule r1: (p ; p) -> (q ; q) weight 0.5
rule r2: (q ; q) -> (p ; p) weight 0.9
`)
	got = d.Suggest(tup, relation.AttrSet{})
	if len(got.S) != 1 || got.S[0] != 1 {
		t.Fatalf("weighted suggestion = %v, want [q]", got.S)
	}
	refined := d.ApplicableRules(tup, relation.AttrSet{})
	if refined.Len() == 0 {
		t.Fatal("no refined rules")
	}
	for _, ru := range refined.Rules() {
		if ru.Confidence() == 1 {
			t.Fatalf("refined rule %s lost its weight", ru.Name())
		}
	}
	if !sameRuleSets(refined, oracle.ApplicableRules(d.Sigma(), d.Master(), tup, relation.AttrSet{})) {
		t.Fatal("refined set diverges from the naive derivation")
	}

	// Flipping the weights flips the pick back to p.
	d = weightedDeriver(t, `
rule r1: (p ; p) -> (q ; q) weight 0.9
rule r2: (q ; q) -> (p ; p) weight 0.5
`)
	got = d.Suggest(tup, relation.AttrSet{})
	if len(got.S) != 1 || got.S[0] != 0 {
		t.Fatalf("weight-flipped suggestion = %v, want [p]", got.S)
	}
}
