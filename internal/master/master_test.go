package master_test

import (
	"slices"
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
	vals, id := dm.RHSValuesWitness(phi1, t1)
	if id != 0 || len(vals) != 1 {
		t.Fatalf("RHSValuesWitness(ϕ1, t1) = %v, id %d, want s1", vals, id)
	}
	if vals[0].Str() != "131" || dm.Tuple(id)[dm.Schema().MustPos("AC")].Str() != "131" {
		t.Error("matched master tuple should be s1 with AC=131")
	}

	// (ϕ4, s1): t1[phn] = 079172485 = s1[Mphn], type = 2.
	phi4 := ruleByName(sigma, "phi4")
	if _, id := dm.RHSValuesWitness(phi4, t1); id != 0 {
		t.Fatalf("RHSValuesWitness(ϕ4, t1) = id %d", id)
	}

	// ϕ6 does not apply to t1 (type = 2, pattern needs 1).
	phi6 := ruleByName(sigma, "phi6")
	if vals, id := dm.RHSValuesWitness(phi6, t1); id >= 0 || vals != nil {
		t.Error("ϕ6 must not apply to t1")
	}

	// Nothing applies to t4 (Example 5).
	t4 := paperex.InputT4()
	for _, ru := range sigma.Rules() {
		if _, id := dm.RHSValuesWitness(ru, t4); id >= 0 {
			t.Errorf("rule %s unexpectedly applies to t4", ru.Name())
		}
	}
}

func TestLookupIndexedAndScan(t *testing.T) {
	sigma, dm := sigmaAndData(t)
	rm := dm.Schema()
	zipPos := rm.MustPos("zip")

	// indexed path (zip is an Xm of ϕ1–ϕ3)
	ids := dm.Lookup([]int{zipPos}, []relation.Value{relation.String("EH7 4AH")})
	if len(ids) != 1 || ids[0] != 0 {
		t.Fatalf("Lookup zip: %v", ids)
	}

	// unindexed path falls back to scan: DOB is no rule's Xm
	dobPos := rm.MustPos("DOB")
	ids = dm.Lookup([]int{dobPos}, []relation.Value{relation.String("25/12/67")})
	if len(ids) != 1 || ids[0] != 1 {
		t.Fatalf("Lookup DOB (scan): %v", ids)
	}
	ids = dm.Lookup([]int{dobPos}, []relation.Value{relation.String("nope")})
	if len(ids) != 0 {
		t.Fatalf("Lookup miss: %v", ids)
	}
	_ = sigma
}

func TestMatchIDsScanFallbackAgreesWithIndex(t *testing.T) {
	sigma := paperex.Sigma0()
	rel := paperex.MasterRelation()
	indexed := master.MustNewForRules(rel, sigma)
	bare := master.New(rel) // no indexes: scan path

	for _, ru := range sigma.Rules() {
		for _, tup := range []relation.Tuple{paperex.InputT1(), paperex.InputT2(), paperex.InputT3(), paperex.InputT4()} {
			a := indexed.MatchIDs(ru, tup)
			b := bare.MatchIDs(ru, tup)
			if len(a) != len(b) {
				t.Fatalf("rule %s: indexed %v vs scan %v", ru.Name(), a, b)
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("rule %s: indexed %v vs scan %v", ru.Name(), a, b)
				}
			}
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

	vals := dm.RHSValues(ru, relation.StringTuple("k", "dirty"))
	if len(vals) != 2 || vals[0].Str() != "v1" || vals[1].Str() != "v2" {
		t.Fatalf("RHSValues = %v", vals)
	}
	if got := dm.RHSValues(ru, relation.StringTuple("absent", "x")); got != nil {
		t.Fatalf("RHSValues miss = %v", got)
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
