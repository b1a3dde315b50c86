package analysis_test

import (
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/fix"
	"repro/internal/master"
	"repro/internal/oracle"
	"repro/internal/paperex"
	"repro/internal/pattern"
	"repro/internal/rule"
)

func newChecker(t *testing.T) *analysis.Checker {
	t.Helper()
	sigma := paperex.Sigma0()
	dm := master.MustNewForRules(paperex.MasterRelation(), sigma)
	return analysis.NewChecker(sigma, sigma.Compile(), dm)
}

// regionAHZ is (Z_AHZ, T_AHZ) of Examples 8/10: Z = (AC, phn, type, zip),
// pattern (!0800, _, 1, _).
func regionAHZ(sigma *rule.Set) *fix.Region {
	r := sigma.Schema()
	z := r.MustPosList("AC", "phn", "type", "zip")
	row := pattern.MustTuple(
		[]int{r.MustPos("AC"), r.MustPos("type")},
		[]pattern.Cell{pattern.NeqStr("0800"), pattern.EqStr("1")},
	)
	return fix.MustRegion(z, pattern.NewTableau(row))
}

// regionAH is (Z_AH, T_AH) of Example 6.
func regionAH(sigma *rule.Set) *fix.Region {
	r := sigma.Schema()
	z := r.MustPosList("AC", "phn", "type")
	row := pattern.MustTuple(
		[]int{r.MustPos("AC"), r.MustPos("type")},
		[]pattern.Cell{pattern.NeqStr("0800"), pattern.EqStr("1")},
	)
	return fix.MustRegion(z, pattern.NewTableau(row))
}

// regionZmi is the certain region (Z_zmi, T_zmi) of Example 9.
func regionZmi(sigma *rule.Set, dm *master.Data) *fix.Region {
	r := sigma.Schema()
	rm := dm.Schema()
	z := r.MustPosList("zip", "phn", "type", "item")
	tc := pattern.NewTableau()
	for _, tm := range dm.Relation().All() {
		tc.Add(pattern.MustTuple(
			[]int{r.MustPos("zip"), r.MustPos("phn"), r.MustPos("type")},
			[]pattern.Cell{
				pattern.Eq(tm[rm.MustPos("zip")]),
				pattern.Eq(tm[rm.MustPos("Mphn")]),
				pattern.EqStr("2"),
			},
		))
	}
	return fix.MustRegion(z, tc)
}

// TestExample10Inconsistent: (Σ0, Dm) is not consistent relative to
// (Z_AHZ, T_AHZ) — zip and (AC, phn) can point at different master tuples.
func TestExample10Inconsistent(t *testing.T) {
	c := newChecker(t)
	v, err := c.Consistent(regionAHZ(c.Sigma()))
	if err != nil {
		t.Fatal(err)
	}
	if v.OK {
		t.Fatal("(Z_AHZ, T_AHZ) must be inconsistent (Example 10)")
	}
	if v.Detail == "" {
		t.Error("negative verdict must carry a witness detail")
	}
}

// TestExampleAHConsistentButNotCertain: dropping zip restores consistency,
// but the region covers neither FN/LN nor item.
func TestExampleAHConsistentButNotCertain(t *testing.T) {
	c := newChecker(t)
	reg := regionAH(c.Sigma())
	v, err := c.Consistent(reg)
	if err != nil {
		t.Fatal(err)
	}
	if !v.OK {
		t.Fatalf("(Z_AH, T_AH) must be consistent: %s", v.Detail)
	}
	v, err = c.CertainRegion(reg)
	if err != nil {
		t.Fatal(err)
	}
	if v.OK {
		t.Fatal("(Z_AH, T_AH) must not be a certain region")
	}
	if !strings.Contains(v.Detail, "item") {
		t.Errorf("coverage detail should mention item: %s", v.Detail)
	}
}

// TestExample9CertainRegion: (Z_zmi, T_zmi) is a certain region.
func TestExample9CertainRegion(t *testing.T) {
	c := newChecker(t)
	reg := regionZmi(c.Sigma(), c.Master())
	v, err := c.CertainRegion(reg)
	if err != nil {
		t.Fatal(err)
	}
	if !v.OK {
		t.Fatalf("(Z_zmi, T_zmi) must be a certain region: %s", v.Detail)
	}
}

// TestExample9RegionZL: the second certain region of Example 9,
// ZL = (FN, LN, AC, phn, type, item) with per-master patterns
// (f, l, a, h, 1, _).
func TestExample9RegionZL(t *testing.T) {
	c := newChecker(t)
	r := c.Sigma().Schema()
	rm := c.Master().Schema()
	z := r.MustPosList("FN", "LN", "AC", "phn", "type", "item")
	tc := pattern.NewTableau()
	for _, tm := range c.Master().Relation().All() {
		tc.Add(pattern.MustTuple(
			r.MustPosList("FN", "LN", "AC", "phn", "type"),
			[]pattern.Cell{
				pattern.Eq(tm[rm.MustPos("FN")]),
				pattern.Eq(tm[rm.MustPos("LN")]),
				pattern.Eq(tm[rm.MustPos("AC")]),
				pattern.Eq(tm[rm.MustPos("Hphn")]),
				pattern.EqStr("1"),
			},
		))
	}
	reg := fix.MustRegion(z, tc)
	v, err := c.CertainRegion(reg)
	if err != nil {
		t.Fatal(err)
	}
	if !v.OK {
		t.Fatalf("(Z_L, T_L) must be a certain region: %s", v.Detail)
	}
}

// TestEmptyTableauVerdicts: an empty tableau is vacuously consistent but
// never a useful certain region.
func TestEmptyTableauVerdicts(t *testing.T) {
	c := newChecker(t)
	r := c.Sigma().Schema()
	reg := fix.MustRegion(r.MustPosList("zip"), pattern.NewTableau())
	v, err := c.Consistent(reg)
	if err != nil || !v.OK {
		t.Fatalf("empty tableau must be consistent: %v %v", v, err)
	}
	v, err = c.CertainRegion(reg)
	if err != nil || v.OK {
		t.Fatalf("empty tableau must not be a certain region: %v %v", v, err)
	}
}

// TestInstantiationCap: a tiny cap makes wildcard rows refuse to expand.
func TestInstantiationCap(t *testing.T) {
	sigma := paperex.Sigma0()
	dm := master.MustNewForRules(paperex.MasterRelation(), sigma)
	c := analysis.NewCheckerCapped(sigma, dm, 2)
	if _, err := c.Consistent(regionAHZ(sigma)); err == nil {
		t.Fatal("expected instantiation-cap error")
	}
}

// TestCheckerAgreesWithOracleOnPaperRegions cross-checks the PTIME checker
// against the exhaustive oracle on every fixture region.
func TestCheckerAgreesWithOracleOnPaperRegions(t *testing.T) {
	c := newChecker(t)
	regions := map[string]*fix.Region{
		"AHZ": regionAHZ(c.Sigma()),
		"AH":  regionAH(c.Sigma()),
		"zmi": regionZmi(c.Sigma(), c.Master()),
	}
	for name, reg := range regions {
		fast, err := c.Consistent(reg)
		if err != nil {
			t.Fatal(err)
		}
		slow, err := oracle.Consistent(c.Sigma(), c.Master(), reg)
		if err != nil {
			t.Fatal(err)
		}
		if fast.OK != slow.OK {
			t.Errorf("%s: consistency disagrees: fast %v vs oracle %v (%s | %s)",
				name, fast.OK, slow.OK, fast.Detail, slow.Detail)
		}
		fastC, err := c.CertainRegion(reg)
		if err != nil {
			t.Fatal(err)
		}
		slowC, err := oracle.CertainRegion(c.Sigma(), c.Master(), reg)
		if err != nil {
			t.Fatal(err)
		}
		if fastC.OK != slowC.OK {
			t.Errorf("%s: coverage disagrees: fast %v vs oracle %v (%s | %s)",
				name, fastC.OK, slowC.OK, fastC.Detail, slowC.Detail)
		}
	}
}
