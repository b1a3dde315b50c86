package cfd_test

import (
	"strings"
	"testing"

	"repro/internal/experiments/cfd"
	"repro/internal/master"
	"repro/internal/paperex"
	"repro/internal/pattern"
	"repro/internal/relation"
)

// acCityCFD is the Example 1 constraint: AC = 020 → city = Ldn.
func acCityCFD(t *testing.T, r *relation.Schema) *cfd.CFD {
	t.Helper()
	lhs := []int{r.MustPos("AC")}
	lp := pattern.MustTuple(lhs, []pattern.Cell{pattern.EqStr("020")})
	return cfd.MustNew("cfd1", r, lhs, r.MustPos("city"), lp, pattern.EqStr("Ldn"))
}

func TestConstantCFDViolation(t *testing.T) {
	r := paperex.SchemaR()
	c := acCityCFD(t, r)
	// t1 has AC = 020 but city = Edi: the Example 1 inconsistency.
	if !c.ViolatedBy(paperex.InputT1()) {
		t.Fatal("t1 must violate (AC=020 → city=Ldn)")
	}
	// t2 has AC = 131: pattern does not apply.
	if c.ViolatedBy(paperex.InputT2()) {
		t.Fatal("t2 must not violate: lhs pattern does not match")
	}
	if !c.IsConstant() {
		t.Fatal("constant CFD misclassified")
	}
	if !strings.Contains(c.String(), "city") {
		t.Errorf("String() = %q", c.String())
	}
}

func TestVariableCFDPairViolation(t *testing.T) {
	r := paperex.SchemaR()
	lhs := []int{r.MustPos("zip")}
	c := cfd.MustNew("v1", r, lhs, r.MustPos("city"), pattern.MustTuple(lhs, []pattern.Cell{pattern.Any}), pattern.Any)
	if c.IsConstant() {
		t.Fatal("variable CFD misclassified")
	}
	t1 := paperex.InputT1() // zip EH7 4AH, city Edi
	t3 := paperex.InputT3() // zip EH7 4AH, city Lnd
	if !c.ViolatedByPair(t1, t3) {
		t.Fatal("equal zips with different cities must violate zip→city")
	}
	if c.ViolatedByPair(t1, t1) {
		t.Fatal("a tuple never pair-violates with itself on equal values")
	}
	if c.ViolatedBy(t1) {
		t.Fatal("variable CFDs have no single-tuple violations")
	}
	t4 := paperex.InputT4()
	if c.ViolatedByPair(t1, t4) {
		t.Fatal("different zips cannot violate")
	}
}

func TestNewCFDValidation(t *testing.T) {
	r := paperex.SchemaR()
	lhs := []int{r.MustPos("AC")}
	lp := pattern.MustTuple(lhs, []pattern.Cell{pattern.Any})
	if _, err := cfd.New("bad", r, []int{0, 0}, 2, pattern.Empty(), pattern.Any); err == nil {
		t.Error("duplicate lhs must be rejected")
	}
	if _, err := cfd.New("bad", r, lhs, r.MustPos("AC"), lp, pattern.Any); err == nil {
		t.Error("rhs in lhs must be rejected")
	}
	if _, err := cfd.New("bad", r, lhs, 99, lp, pattern.Any); err == nil {
		t.Error("rhs out of range must be rejected")
	}
	outside := pattern.MustTuple([]int{r.MustPos("city")}, []pattern.Cell{pattern.Any})
	if _, err := cfd.New("bad", r, lhs, r.MustPos("zip"), outside, pattern.Any); err == nil {
		t.Error("pattern outside lhs must be rejected")
	}
}

func TestFromRulesSigma0(t *testing.T) {
	sigma := paperex.Sigma0()
	dm := master.MustNewForRules(paperex.MasterRelation(), sigma)
	set, err := cfd.FromRules(sigma, dm)
	if err != nil {
		t.Fatal(err)
	}
	// ϕ1–ϕ5 instantiate with both master tuples; ϕ6–ϕ8 with both
	// (AC 131 and 020 both ≠ 0800); ϕ9 with none (no master AC = 0800).
	// 8 rules × 2 masters = 16 constant CFDs.
	if set.Len() != 16 {
		t.Fatalf("instantiated %d CFDs, want 16", set.Len())
	}
	r := sigma.Schema()

	// t1 violates the ϕ1-from-s1 CFD (zip=EH7 4AH → AC=131, t1[AC]=020)
	violated := set.ViolationsOf(paperex.InputT1())
	foundAC := false
	for _, c := range violated {
		if c.RHS() == r.MustPos("AC") {
			foundAC = true
		}
	}
	if !foundAC {
		t.Fatalf("t1 must violate the zip→AC CFD; got %d violations", len(violated))
	}

	// The matching-constant probe sees every CFD whose lhs applies.
	matches := set.MatchingConstant(paperex.InputT1())
	if len(matches) == 0 {
		t.Fatal("t1 must match some instantiated CFDs")
	}
	// t4 matches nothing (no master counterpart).
	if got := set.MatchingConstant(paperex.InputT4()); len(got) != 0 {
		t.Fatalf("t4 matches %d CFDs, want 0", len(got))
	}
}

func TestSetIndexAgreesWithScan(t *testing.T) {
	sigma := paperex.Sigma0()
	dm := master.MustNewForRules(paperex.MasterRelation(), sigma)
	set, err := cfd.FromRules(sigma, dm)
	if err != nil {
		t.Fatal(err)
	}
	for _, tup := range []relation.Tuple{paperex.InputT1(), paperex.InputT2(), paperex.InputT3(), paperex.InputT4()} {
		indexed := set.ViolationsOf(tup)
		var scanned []*cfd.CFD
		for _, c := range set.CFDs() {
			if c.ViolatedBy(tup) {
				scanned = append(scanned, c)
			}
		}
		if len(indexed) != len(scanned) {
			t.Fatalf("indexed %d vs scanned %d violations for %v", len(indexed), len(scanned), tup)
		}
	}
}
