package master_test

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/master"
	"repro/internal/paperex"
	"repro/internal/pattern"
	"repro/internal/relation"
	"repro/internal/rule"
)

func sigmaAndData(t *testing.T) (*rule.Set, *master.Data) {
	t.Helper()
	sigma := paperex.Sigma0()
	dm, err := master.NewForRules(paperex.MasterRelation(), sigma)
	if err != nil {
		t.Fatal(err)
	}
	return sigma, dm
}

func ruleByName(sigma *rule.Set, name string) *rule.Rule {
	for _, ru := range sigma.Rules() {
		if ru.Name() == name {
			return ru
		}
	}
	return nil
}

func TestNewForRulesSchemaCheck(t *testing.T) {
	sigma := paperex.Sigma0()
	wrong := relation.NewRelation(relation.StringSchema("Other", "X"))
	if _, err := master.NewForRules(wrong, sigma); err == nil {
		t.Fatal("want schema mismatch error")
	}
}

// TestFirstMatchPaperExamples: the first master tuple applicable with a
// rule — the witness of the value probe TransFix makes — on the paper's
// examples.
func TestFirstMatchPaperExamples(t *testing.T) {
	sigma, dm := sigmaAndData(t)
	t1 := paperex.InputT1()

	// (ϕ1, s1) applies to t1: t1[zip] = EH7 4AH = s1[zip] (Example 4).
	phi1 := ruleByName(sigma, "phi1")
	vals, id := dm.AppendRHSValues(nil, phi1, t1)
	if id != 0 || len(vals) != 1 {
		t.Fatalf("AppendRHSValues(ϕ1, t1) = %v, id %d, want s1", vals, id)
	}
	if vals[0].Str() != "131" || dm.Tuple(id)[dm.Schema().MustPos("AC")].Str() != "131" {
		t.Error("matched master tuple should be s1 with AC=131")
	}

	// (ϕ4, s1): t1[phn] = 079172485 = s1[Mphn], type = 2.
	phi4 := ruleByName(sigma, "phi4")
	if _, id := dm.AppendRHSValues(nil, phi4, t1); id != 0 {
		t.Fatalf("AppendRHSValues(ϕ4, t1) = id %d", id)
	}

	// ϕ6 does not apply to t1 (type = 2, pattern needs 1).
	phi6 := ruleByName(sigma, "phi6")
	if vals, id := dm.AppendRHSValues(nil, phi6, t1); id >= 0 || vals != nil {
		t.Error("ϕ6 must not apply to t1")
	}

	// Nothing applies to t4 (Example 5).
	t4 := paperex.InputT4()
	for _, ru := range sigma.Rules() {
		if _, id := dm.AppendRHSValues(nil, ru, t4); id >= 0 {
			t.Errorf("rule %s unexpectedly applies to t4", ru.Name())
		}
	}
}

// TestLookupIndexedAndScan: the enumerating probe reads the index over the
// rule's Xm (zip is the Xm of ϕ1). A rule with no index has no scan to fall
// back on: TestProbeRuleOutsideSigmaPanics.
func TestLookupIndexedAndScan(t *testing.T) {
	sigma, dm := sigmaAndData(t)
	if ids := dm.MatchIDs(ruleByName(sigma, "phi1"), paperex.InputT1()); len(ids) != 1 || ids[0] != 0 {
		t.Fatalf("MatchIDs zip: %v", ids)
	}
}

// TestProbeRuleOutsideSigmaPanics: the master answers only for the Σ it was
// built for. A WithPattern-refined copy of one of its rules, and any rule on
// a snapshot built for an empty Σ, make each of the four probes panic with
// the rule's name.
func TestProbeRuleOutsideSigmaPanics(t *testing.T) {
	sigma, dm := sigmaAndData(t)
	phi1 := ruleByName(sigma, "phi1")
	t1 := paperex.InputT1()
	x := phi1.LHS()[0]
	plus, err := phi1.WithPattern(phi1.Pattern().WithCell(x, pattern.Eq(t1[x])))
	if err != nil {
		t.Fatal(err)
	}
	lhs := relation.NewAttrSet(phi1.LHS()...)
	for _, c := range []struct {
		name string
		dm   *master.Data
		ru   *rule.Rule
	}{
		{"refined rule", dm, plus},
		{"empty Σ's snapshot", master.MustNewForRules(paperex.MasterRelation(), rule.MustNewSet(sigma.Schema(), sigma.MasterSchema())), phi1},
	} {
		for _, p := range []struct {
			name  string
			probe func()
		}{
			{"MatchIDs", func() { c.dm.MatchIDs(c.ru, t1) }},
			{"AppendRHSValues", func() { c.dm.AppendRHSValues(nil, c.ru, t1) }},
			{"PatternSupported", func() { c.dm.PatternSupported(c.ru) }},
			{"CompatibleExists", func() { c.dm.CompatibleExists(c.ru, t1, lhs) }},
		} {
			func() {
				defer func() {
					if msg, _ := recover().(string); !strings.Contains(msg, c.ru.Name()) {
						t.Errorf("%s: %s panicked with %q, want a message naming rule %s", c.name, p.name, msg, c.ru.Name())
					}
				}()
				p.probe()
			}()
		}
	}
}

func TestRHSValuesDistinct(t *testing.T) {
	// Master with two tuples sharing the key but different rhs values.
	rm := relation.StringSchema("Rm", "K", "V")
	r := relation.StringSchema("R", "K", "V")
	rel := relation.NewRelation(rm)
	rel.MustAppend(
		relation.StringTuple("k", "v1"),
		relation.StringTuple("k", "v2"),
		relation.StringTuple("k", "v1"),
	)
	ru := rule.MustNew("r", r, rm, []int{0}, []int{0}, 1, 1, mustEmptyPattern())
	sigma := rule.MustNewSet(r, rm, ru)
	dm := master.MustNewForRules(rel, sigma)

	vals, witness := dm.AppendRHSValues(nil, ru, relation.StringTuple("k", "dirty"))
	if len(vals) != 2 || vals[0].Str() != "v1" || vals[1].Str() != "v2" || witness != 0 {
		t.Fatalf("AppendRHSValues = %v, witness %d", vals, witness)
	}
	if got, witness := dm.AppendRHSValues(nil, ru, relation.StringTuple("absent", "x")); got != nil || witness != -1 {
		t.Fatalf("AppendRHSValues miss = %v, witness %d", got, witness)
	}
	// A list that already holds v2 gains only v1.
	prefix := []relation.Value{relation.String("v2")}
	if got, _ := dm.AppendRHSValues(prefix, ru, relation.StringTuple("k", "dirty")); len(got) != 2 || got[0].Str() != "v2" || got[1].Str() != "v1" {
		t.Fatalf("AppendRHSValues([v2]) = %v, want [v2 v1]", got)
	}
}

func TestAccessors(t *testing.T) {
	_, dm := sigmaAndData(t)
	if dm.Len() != 2 {
		t.Fatalf("Len = %d", dm.Len())
	}
	if dm.Tuple(1)[0].Str() != "Mark" {
		t.Fatalf("Tuple(1) = %v", dm.Tuple(1))
	}
	if dm.Relation().Len() != 2 {
		t.Fatal("Relation() must expose the wrapped relation")
	}
}

func mustEmptyPattern() pattern.Tuple { return pattern.Empty() }

// TestMultiMatchProbeShardInvariant: on a HOSP master, where most rule keys
// match 10 and some 500 tuples at |Dm| = 20k, the enumerating probe at P=4
// returns the key's one bucket — the ids of the P=1 build, without
// allocating.
func TestMultiMatchProbeShardInvariant(t *testing.T) {
	const n = 20_000
	ds, err := datagen.Hosp(datagen.Config{Seed: 1, MasterSize: n, Tuples: 1})
	if err != nil {
		t.Fatal(err)
	}
	p4 := master.MustNewForRules(ds.Master.Relation(), ds.Sigma, master.WithShards(4))
	probe := ds.Master.Tuple(n / 2)
	most := 0
	for _, ru := range ds.Sigma.Rules() {
		want := ds.Master.MatchIDs(ru, probe)
		if got := p4.MatchIDs(ru, probe); !slices.Equal(got, want) {
			t.Fatalf("rule %s: P=4 MatchIDs = %v, P=1 %v", ru.Name(), got, want)
		}
		most = max(most, len(want))
		if allocs := testing.AllocsPerRun(100, func() { p4.MatchIDs(ru, probe) }); allocs != 0 {
			t.Fatalf("rule %s: P=4 MatchIDs over %d matches allocates %.1f objects per probe; want 0", ru.Name(), len(want), allocs)
		}
	}
	if most < 100 {
		t.Fatalf("fixture broken: the largest key matches %d tuples", most)
	}
}
