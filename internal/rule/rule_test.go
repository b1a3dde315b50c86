package rule_test

import (
	"strings"
	"testing"

	"repro/internal/paperex"
	"repro/internal/pattern"
	"repro/internal/relation"
	"repro/internal/rule"
)

func twoColSchemas() (*relation.Schema, *relation.Schema) {
	r := relation.StringSchema("R", "A", "B", "C")
	rm := relation.StringSchema("Rm", "Am", "Bm", "Cm")
	return r, rm
}

func TestNewRuleValidation(t *testing.T) {
	r, rm := twoColSchemas()
	cases := []struct {
		name   string
		x, xm  []int
		b, bm  int
		substr string
	}{
		{"len-mismatch", []int{0, 1}, []int{0}, 2, 2, "|X|"},
		{"dup-x", []int{0, 0}, []int{0, 1}, 2, 2, "duplicate"},
		{"b-in-x", []int{0}, []int{0}, 0, 1, "must not occur in X"},
		{"x-range", []int{9}, []int{0}, 2, 2, "out of range"},
		{"xm-range", []int{0}, []int{9}, 2, 2, "out of range"},
		{"b-range", []int{0}, []int{0}, 9, 2, "out of range"},
		{"bm-range", []int{0}, []int{0}, 2, 9, "out of range"},
	}
	for _, c := range cases {
		_, err := rule.New(c.name, r, rm, c.x, c.xm, c.b, c.bm, pattern.Empty())
		if err == nil || !strings.Contains(err.Error(), c.substr) {
			t.Errorf("%s: want error containing %q, got %v", c.name, c.substr, err)
		}
	}
	if _, err := rule.New("ok", r, rm, []int{0}, []int{1}, 2, 2, pattern.Empty()); err != nil {
		t.Errorf("valid rule rejected: %v", err)
	}
}

func TestRuleAccessorsAndSets(t *testing.T) {
	r, rm := twoColSchemas()
	tp := pattern.MustTuple([]int{1}, []pattern.Cell{pattern.EqStr("v")})
	ru := rule.MustNew("r", r, rm, []int{0}, []int{1}, 2, 2, tp)
	if got := ru.LHS(); len(got) != 1 || got[0] != 0 {
		t.Errorf("LHS = %v", got)
	}
	if got := ru.LHSM(); len(got) != 1 || got[0] != 1 {
		t.Errorf("LHSM = %v", got)
	}
	if ru.RHS() != 2 || ru.RHSM() != 2 {
		t.Error("RHS/RHSM wrong")
	}
	if !ru.PremiseSet().Equal(relation.NewAttrSet(0, 1)) {
		t.Errorf("PremiseSet = %v", ru.PremiseSet().Positions())
	}
	if mp, ok := ru.MasterPosFor(0); !ok || mp != 1 {
		t.Errorf("MasterPosFor(0) = %d,%v", mp, ok)
	}
	if _, ok := ru.MasterPosFor(2); ok {
		t.Error("MasterPosFor must fail for non-lhs attribute")
	}
}

func TestRuleIsDirect(t *testing.T) {
	r, rm := twoColSchemas()
	inX := pattern.MustTuple([]int{0}, []pattern.Cell{pattern.EqStr("v")})
	outX := pattern.MustTuple([]int{1}, []pattern.Cell{pattern.EqStr("v")})
	direct := rule.MustNew("d", r, rm, []int{0}, []int{0}, 2, 2, inX)
	indirect := rule.MustNew("i", r, rm, []int{0}, []int{0}, 2, 2, outX)
	if !direct.IsDirect() || indirect.IsDirect() {
		t.Error("IsDirect misclassifies")
	}
}

func TestRuleNormalize(t *testing.T) {
	r, rm := twoColSchemas()
	tp := pattern.MustTuple([]int{0, 1}, []pattern.Cell{pattern.Any, pattern.EqStr("v")})
	ru := rule.MustNew("n", r, rm, []int{2}, []int{2}, 0, 0, tp)
	n := ru.Normalize()
	if n.Pattern().Len() != 1 {
		t.Fatalf("normalized pattern len = %d", n.Pattern().Len())
	}
	// Already-normal rules are returned as-is.
	if n.Normalize() != n {
		t.Error("Normalize of normal rule should be identity")
	}
}

func TestSetAggregates(t *testing.T) {
	sigma := paperex.Sigma0()
	r := sigma.Schema()
	if sigma.Len() != 9 {
		t.Fatalf("Σ0 must have 9 rules, got %d", sigma.Len())
	}
	wantLHS := relation.NewAttrSet(r.MustPos("zip"), r.MustPos("phn"), r.MustPos("AC"))
	if !sigma.LHS().Equal(wantLHS) {
		t.Errorf("lhs(Σ0) = %v", sigma.LHS().Names(r))
	}
	wantRHS := relation.NewAttrSet(
		r.MustPos("AC"), r.MustPos("str"), r.MustPos("city"),
		r.MustPos("FN"), r.MustPos("LN"), r.MustPos("zip"))
	if !sigma.RHS().Equal(wantRHS) {
		t.Errorf("rhs(Σ0) = %v", sigma.RHS().Names(r))
	}
	// item, phn, type are not fixable by Σ0.
	wantFree := relation.NewAttrSet(r.MustPos("item"), r.MustPos("phn"), r.MustPos("type"))
	if !sigma.FreeAttrs().Equal(wantFree) {
		t.Errorf("free attrs = %v", sigma.FreeAttrs().Names(r))
	}
	fixingCity := 0
	for _, ru := range sigma.Rules() {
		if ru.RHS() == r.MustPos("city") {
			fixingCity++
		}
	}
	if fixingCity != 3 {
		t.Errorf("rules fixing city = %d, want 3 (ϕ3, ϕ7, ϕ9)", fixingCity)
	}
	if sigma.IsDirect() {
		t.Error("Σ0 is not direct (ϕ4 has pattern attr type ∉ X)")
	}
}

func TestSetActiveDomain(t *testing.T) {
	sigma := paperex.Sigma0()
	r := sigma.Schema()
	ad := sigma.ActiveDomain()
	typeVals := ad[r.MustPos("type")]
	if len(typeVals) != 2 {
		t.Fatalf("type active domain = %v", typeVals)
	}
	acVals := ad[r.MustPos("AC")]
	if len(acVals) != 1 || acVals[0].Str() != "0800" {
		t.Fatalf("AC active domain = %v", acVals)
	}
}

func TestSetAddSchemaMismatch(t *testing.T) {
	r, rm := twoColSchemas()
	other := relation.StringSchema("Other", "Z")
	set := rule.MustNewSet(r, rm)
	bad := rule.MustNew("bad", other, rm, nil, nil, 0, 0, pattern.Empty())
	if err := set.Add(bad); err == nil {
		t.Error("Add must reject rules over a different schema")
	}
}

func TestRuleString(t *testing.T) {
	sigma := paperex.Sigma0()
	s := sigma.Rule(6).String() // phi7
	for _, want := range []string{"phi7", "AC", "phn", "Hphn", "city", "!0800"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
	if !strings.Contains(sigma.String(), "phi1") || !strings.Contains(sigma.String(), "phi9") {
		t.Error("Set.String must list all rules")
	}
}
