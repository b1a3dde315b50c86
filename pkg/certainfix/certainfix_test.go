package certainfix_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/paperex"
	"repro/pkg/certainfix"
)

func paperSystem(t *testing.T, opts ...certainfix.Option) *certainfix.System {
	t.Helper()
	sigma := paperex.Sigma0()
	sys, err := certainfix.New(sigma, paperex.MasterRelation(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestSystemFixEndToEnd(t *testing.T) {
	sys := paperSystem(t)
	truth := certainfix.StringTuple(
		"Robert", "Brady", "131", "079172485", "2",
		"51 Elm Row", "Edi", "EH7 4AH", "CD")
	res, err := sys.FixContext(context.Background(), paperex.InputT1(), certainfix.SimulatedUser{Truth: truth})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || !res.Tuple.Equal(truth) {
		t.Fatalf("completed=%v tuple=%v", res.Completed, res.Tuple)
	}
}

func TestSystemRepairOnce(t *testing.T) {
	sys := paperSystem(t)
	r := sys.Schema()
	t1 := paperex.InputT1()
	fixed, covered, changed, err := sys.RepairOnce(t1, []int{r.MustPos("zip")})
	if err != nil {
		t.Fatal(err)
	}
	if fixed[r.MustPos("AC")].Str() != "131" {
		t.Fatalf("AC = %v", fixed[r.MustPos("AC")])
	}
	// Input untouched.
	if t1[r.MustPos("AC")].Str() != "020" {
		t.Fatal("RepairOnce must not mutate its input")
	}
	if len(changed) != 3 || covered.Len() != 4 {
		t.Fatalf("changed=%v covered=%v", changed, covered.Positions())
	}
	if _, _, _, err := sys.RepairOnce(t1, []int{0, 0}); err == nil {
		t.Fatal("duplicate validated attributes must error")
	}
}

func TestSystemRegionChecks(t *testing.T) {
	sys := paperSystem(t)
	reg, err := certainfix.NewRegion(sys.Schema(),
		[]string{"zip", "phn", "type", "item"},
		[]map[string]certainfix.Value{
			{"zip": certainfix.String("EH7 4AH"), "phn": certainfix.String("079172485"), "type": certainfix.String("2")},
		})
	if err != nil {
		t.Fatal(err)
	}
	v, err := sys.CertainRegion(reg)
	if err != nil || !v.OK {
		t.Fatalf("Example 9 region must be certain: %v %v", v, err)
	}
	v, err = sys.Consistent(reg)
	if err != nil || !v.OK {
		t.Fatalf("region must be consistent: %v %v", v, err)
	}
	if _, err := certainfix.NewRegion(sys.Schema(), []string{"zip"},
		[]map[string]certainfix.Value{{"nope": certainfix.Null}}); err == nil {
		t.Fatal("unknown attribute in region row must error")
	}
}

func TestSystemSuggest(t *testing.T) {
	sys := paperSystem(t)
	r := sys.Schema()
	t1 := paperex.InputT1()
	t1[r.MustPos("AC")] = certainfix.String("131")
	t1[r.MustPos("str")] = certainfix.String("51 Elm Row")
	s, err := sys.Suggest(t1, r.MustPosList("zip", "AC", "str", "city"))
	if err != nil || len(s) != 3 {
		t.Fatalf("suggestion = %v, %v, want {phn, type, item}", s, err)
	}
}

// TestSystemSuggestRejectsMisalignedInput: Suggest checks its input as
// Begin and RepairOnce do. A validated position below 0 or at the arity,
// and a tuple of another arity, fail with ErrArityMismatch instead of
// panicking or answering for another tuple.
func TestSystemSuggestRejectsMisalignedInput(t *testing.T) {
	sys := paperSystem(t)
	r := sys.Schema()
	t1 := paperex.InputT1()
	for _, c := range []struct {
		name      string
		t         certainfix.Tuple
		validated []int
	}{
		{"validated -1", t1, []int{-1}},
		{"validated at the arity", t1, []int{0, r.Arity()}},
		{"short tuple", t1[:1], nil},
		{"long tuple", append(t1.Clone(), certainfix.Null), []int{0}},
	} {
		if s, err := sys.Suggest(c.t, c.validated); !errors.Is(err, certainfix.ErrArityMismatch) || s != nil {
			t.Errorf("%s: Suggest = %v, %v, want ErrArityMismatch", c.name, s, err)
		}
	}
}

func TestSystemRegions(t *testing.T) {
	sys := paperSystem(t)
	regions := sys.Regions()
	if len(regions) == 0 {
		t.Fatal("no derived regions")
	}
	if len(regions[0].Z) == 0 {
		t.Fatal("best region has empty Z")
	}
}

func TestParseRulesAndCSV(t *testing.T) {
	r := certainfix.StringSchema("R", "K", "V")
	rm := certainfix.StringSchema("Rm", "K", "V")
	rules, err := certainfix.ParseRules(r, rm, `rule kv: (K ; K) -> (V ; V) when K != nil`)
	if err != nil || rules.Len() != 1 {
		t.Fatalf("rules=%v err=%v", rules, err)
	}
	rel, err := certainfix.ReadCSV(rm, strings.NewReader("K,V\nk1,v1\nk2,v2\n"))
	if err != nil || rel.Len() != 2 {
		t.Fatalf("rel=%v err=%v", rel, err)
	}
	sys, err := certainfix.New(rules, rel)
	if err != nil {
		t.Fatal(err)
	}
	fixed, _, changed, err := sys.RepairOnce(certainfix.StringTuple("k1", "wrong"), []int{0})
	if err != nil || len(changed) != 1 || fixed[1].Str() != "v1" {
		t.Fatalf("fixed=%v changed=%v err=%v", fixed, changed, err)
	}
}

func TestParseRulesWithSchemas(t *testing.T) {
	r, rm, rules, err := certainfix.ParseRulesWithSchemas(`
schema R: K, V
master Rm: K, V
rule kv: (K ; K) -> (V ; V) when K != nil
`)
	if err != nil {
		t.Fatal(err)
	}
	if r.Arity() != 2 || rm.Arity() != 2 || rules.Len() != 1 {
		t.Fatalf("r=%v rm=%v rules=%d", r, rm, rules.Len())
	}
	if _, _, _, err := certainfix.ParseRulesWithSchemas("rule kv: (K ; K) -> (V ; V)"); err == nil {
		t.Fatal("missing headers must error")
	}
	if _, _, _, err := certainfix.ParseRulesWithSchemas("schema R: \nmaster Rm: K"); err == nil {
		t.Fatal("empty attribute must error")
	}
}

// rulesFile renders a rules file the way cmd/datagen writes one: the two
// schema headers, then the rule DSL.
func rulesFile(r, rm *certainfix.Schema, dsl string) string {
	return fmt.Sprintf("schema %s: %s\nmaster %s: %s\n%s",
		r.Name(), strings.Join(r.AttrNames(), ", "), rm.Name(), strings.Join(rm.AttrNames(), ", "), dsl)
}

// badSchemaHeaders are rules files whose header names a schema
// relation.NewSchema refuses.
func badSchemaHeaders() map[string]string {
	wide := make([]string, 65)
	for i := range wide {
		wide[i] = fmt.Sprintf("a%d", i)
	}
	return map[string]string{
		"duplicate attribute": "schema R: a, a\nmaster Rm: a",
		"empty schema name":   "schema : a, b\nmaster Rm: a",
		"65 attributes":       "schema R: " + strings.Join(wide, ", ") + "\nmaster Rm: a0",
	}
}

// TestParseRulesWithSchemasBadHeader: a schema header NewSchema refuses is
// an error naming its line, not a panic.
func TestParseRulesWithSchemasBadHeader(t *testing.T) {
	for name, src := range badSchemaHeaders() {
		if _, _, _, err := certainfix.ParseRulesWithSchemas(src); err == nil || !strings.HasPrefix(err.Error(), "line 1: ") {
			t.Errorf("%s: err = %v, want an error on line 1", name, err)
		}
	}
}

// FuzzRulesFile throws arbitrary text at the rules-file parser the CLIs
// and certainfixd read -rules through: it returns both schemas and the
// rules, or an error, and never panics.
func FuzzRulesFile(f *testing.F) {
	f.Add(rulesFile(paperex.SchemaR(), paperex.SchemaRm(), paperex.RulesDSL))
	f.Add(rulesFile(datagen.HospSchema(), datagen.HospMasterSchema(), datagen.HospRulesDSL))
	f.Add(rulesFile(datagen.DblpSchema(), datagen.DblpMasterSchema(), datagen.DblpRulesDSL))
	for _, src := range badSchemaHeaders() {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		r, rm, rules, err := certainfix.ParseRulesWithSchemas(src)
		if err == nil && (r == nil || rm == nil || rules == nil) {
			t.Fatalf("no error, but r=%v rm=%v rules=%v", r, rm, rules)
		}
	})
}
