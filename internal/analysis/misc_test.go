package analysis_test

import (
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/fix"
	"repro/internal/master"
	"repro/internal/paperex"
	"repro/internal/pattern"
	"repro/internal/relation"
	"repro/internal/rule"
)

func TestCheckerAccessors(t *testing.T) {
	c := newChecker(t)
	if c.Sigma() == nil || c.Master() == nil {
		t.Fatal("accessors must expose Σ and Dm")
	}
}

// TestConcreteVerdictDirectEntry: the exported per-row entry point agrees
// with the tableau-level check on the Example 9 row.
func TestConcreteVerdictDirectEntry(t *testing.T) {
	c := newChecker(t)
	r := c.Sigma().Schema()
	z := r.MustPosList("zip", "phn", "type", "item")
	good := []relation.Value{
		relation.String("EH7 4AH"), relation.String("079172485"),
		relation.String("2"), relation.String("CD"),
	}
	if v := c.ConcreteVerdict(z, good, true); !v.OK {
		t.Fatalf("coverage verdict: %s", v.Detail)
	}
	if v := c.ConcreteVerdict(z, good, false); !v.OK {
		t.Fatalf("consistency verdict: %s", v.Detail)
	}
	// An unmatched zip/phone combination is consistent (nothing applies)
	// but covers nothing.
	bad := []relation.Value{
		relation.String("nowhere"), relation.String("000"),
		relation.String("2"), relation.String("CD"),
	}
	if v := c.ConcreteVerdict(z, bad, false); !v.OK {
		t.Fatalf("trivially consistent row rejected: %s", v.Detail)
	}
	if v := c.ConcreteVerdict(z, bad, true); v.OK {
		t.Fatal("uncoverable row must fail the coverage verdict")
	}
}

// TestDirectCheckerRejectsNonDirectRules: the Thm-5 checker refuses rule
// sets whose applicable rules have pattern attributes outside X.
func TestDirectCheckerRejectsNonDirectRules(t *testing.T) {
	sigma := paperex.Sigma0() // ϕ4's pattern reads `type` ∉ X
	dm := master.MustNewForRules(paperex.MasterRelation(), sigma)
	c := analysis.NewChecker(sigma, sigma.Compile(), dm)
	r := sigma.Schema()
	z := r.MustPosList("phn") // ϕ4/ϕ5 become applicable (X = phn ⊆ Z)
	row := pattern.MustTuple(z, []pattern.Cell{pattern.Any})
	reg := fix.MustRegion(z, pattern.NewTableau(row))
	_, err := c.DirectConsistent(reg)
	if err == nil || !strings.Contains(err.Error(), "Xp ⊆ X") {
		t.Fatalf("want direct-form error, got %v", err)
	}
}

// TestDirectCheckerWithinRuleConflict: two master tuples with the same
// key but different rhs values violate direct-fix consistency through a
// single rule (the ϕ1 = ϕ2 case of query Qϕ1,ϕ2).
func TestDirectCheckerWithinRuleConflict(t *testing.T) {
	r := relation.StringSchema("R", "K", "V")
	rm := relation.StringSchema("Rm", "K", "V")
	sigma := rule.MustNewSet(r, rm,
		rule.MustNew("kv", r, rm, []int{0}, []int{0}, 1, 1, pattern.Empty()))
	rel := relation.NewRelation(rm)
	rel.MustAppend(
		relation.StringTuple("k", "v1"),
		relation.StringTuple("k", "v2"),
	)
	dm := master.MustNewForRules(rel, sigma)
	c := analysis.NewChecker(sigma, sigma.Compile(), dm)
	z := []int{0}
	reg := fix.MustRegion(z, pattern.NewTableau(
		pattern.MustTuple(z, []pattern.Cell{pattern.EqStr("k")})))

	v, err := c.DirectConsistent(reg)
	if err != nil {
		t.Fatal(err)
	}
	if v.OK {
		t.Fatal("duplicate master keys with different values must be inconsistent")
	}
	// The general checker agrees.
	gv, err := c.Consistent(reg)
	if err != nil || gv.OK {
		t.Fatalf("general checker disagrees: %v %v", gv, err)
	}
	// And coverage fails a fortiori.
	cv, err := c.DirectCertainRegion(reg)
	if err != nil || cv.OK {
		t.Fatalf("coverage must fail: %v %v", cv, err)
	}
}

// TestZEnumerateLimitsAndDuplicates: guard rails of the exact solvers.
func TestZEnumerateLimitsAndDuplicates(t *testing.T) {
	c := newChecker(t)
	r := c.Sigma().Schema()
	if _, err := c.ZEnumerate([]int{r.MustPos("zip"), r.MustPos("zip")}, 0); err == nil {
		t.Fatal("duplicate Z must error")
	}
	// A Z missing a free attribute prunes to nil immediately.
	rows, err := c.ZEnumerate(r.MustPosList("zip", "phn"), 0)
	if err != nil || rows != nil {
		t.Fatalf("rows=%v err=%v", rows, err)
	}
}
