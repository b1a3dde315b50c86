package certainfix_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/paperex"
	"repro/pkg/certainfix"
)

func TestSessionThroughPublicAPI(t *testing.T) {
	sys := paperSystem(t)
	truth := certainfix.StringTuple(
		"Robert", "Brady", "131", "079172485", "2",
		"51 Elm Row", "Edi", "EH7 4AH", "CD")
	sess, err := sys.Begin(context.Background(), paperex.InputT1())
	if err != nil {
		t.Fatal(err)
	}
	for !sess.Done() {
		attrs := sess.Suggested()
		values := make([]certainfix.Value, len(attrs))
		for i, p := range attrs {
			values[i] = truth[p]
		}
		if err := sess.Provide(attrs, values); err != nil {
			t.Fatal(err)
		}
	}
	if res := sess.Result(); !res.Completed || !res.Tuple.Equal(truth) {
		t.Fatalf("res = %+v", res)
	}
}

func TestDiscoverRulesPublicAPI(t *testing.T) {
	// Mine rules from the paper's master data with R aligned to Rm.
	rm := paperex.SchemaRm()
	r := certainfix.StringSchema("R", rm.AttrNames()...)
	rules, deps, err := certainfix.DiscoverRules(r, paperex.MasterRelation(), certainfix.DiscoverOptions{
		MinSupport: 2, MinDistinctRatio: 0.01,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rules.Len() == 0 || len(deps) != rules.Len() {
		t.Fatalf("rules=%d deps=%d", rules.Len(), len(deps))
	}
	// zip determines city in {s1, s2}.
	found := false
	for _, ru := range rules.Rules() {
		if len(ru.LHS()) == 1 && ru.LHS()[0] == r.MustPos("zip") && ru.RHS() == r.MustPos("city") {
			found = true
		}
	}
	if !found {
		t.Fatal("zip → city should be mined from {s1, s2}")
	}
}

// Discover must bootstrap a working system from a dirty master with no
// hand-written Σ: the loop repairs the noise it can prove against group
// majorities, the mined rules come back exact on the cleaned data, and
// rules + cleaned master feed straight into New.
func TestDiscoverBootstrapLoop(t *testing.T) {
	rm := certainfix.StringSchema("Rm", "id", "name", "city")
	rel := certainfix.NewRelation(rm)
	for i := 0; i < 300; i++ {
		id := i % 30
		rel.MustAppend(certainfix.StringTuple(
			fmt.Sprintf("id%d", id), fmt.Sprintf("name%d", id), fmt.Sprintf("city%d", id%7)))
	}
	// Corrupt a handful of name cells; each id group of 10 keeps a 90%
	// majority, comfortably above RepairMajority.
	for _, row := range []int{3, 47, 112, 200, 258} {
		rel.Tuple(row)[1] = certainfix.String("corrupt" + rel.Tuple(row)[1].Str())
	}
	r := certainfix.StringSchema("R", rm.AttrNames()...)
	res, err := certainfix.Discover(r, rel, certainfix.DiscoverLoopOptions{
		Options: certainfix.DiscoverOptions{MaxLHS: 1, MinSupport: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) == 0 || res.Rounds[0].CellsRepaired != 5 {
		t.Fatalf("expected the 5 corrupted cells repaired in round 1, got %+v", res.Rounds)
	}
	var idName *certainfix.Rule
	for _, ru := range res.Rules.Rules() {
		if len(ru.LHS()) == 1 && ru.LHS()[0] == 0 && ru.RHS() == 1 {
			idName = ru
		}
	}
	if idName == nil {
		t.Fatalf("id → name not mined: %v", res.Rules)
	}
	if idName.Confidence() != 1 {
		t.Fatalf("after repair id → name should be exact, got confidence %v", idName.Confidence())
	}
	// The bootstrapped system fixes a dirty input against the cleaned
	// master.
	sys, err := certainfix.New(res.Rules, res.Cleaned)
	if err != nil {
		t.Fatal(err)
	}
	dirty := certainfix.StringTuple("id4", "wrong", "nowhere")
	fixed, _, changed, err := sys.RepairOnce(dirty, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if len(changed) == 0 || fixed[1].Str() != "name4" || fixed[2].Str() != "city4" {
		t.Fatalf("bootstrapped system should fix name/city from id: %v (changed %v)", fixed, changed)
	}
}
