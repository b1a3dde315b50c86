package fix_test

import (
	"testing"

	"repro/internal/fix"
	"repro/internal/master"
	"repro/internal/oracle"
	"repro/internal/paperex"
	"repro/internal/pattern"
	"repro/internal/relation"
	"repro/internal/rule"
)

func setup(t *testing.T) (*rule.Set, *master.Data) {
	t.Helper()
	sigma := paperex.Sigma0()
	dm := master.MustNewForRules(paperex.MasterRelation(), sigma)
	return sigma, dm
}

// TestExample6UniqueFix: t3 w.r.t. (Z_AH, T_AH) has the unique fix t3'
// with str, city, zip taken from s2 (Examples 6 and 8).
func TestExample6UniqueFix(t *testing.T) {
	sigma, dm := setup(t)
	r := sigma.Schema()
	reg := regionAH(t)

	fixed, covered, unique, err := oracle.UniqueFix(sigma, dm, reg, paperex.InputT3())
	if err != nil {
		t.Fatal(err)
	}
	if !unique {
		t.Fatal("t3 must have a unique fix w.r.t. (Z_AH, T_AH)")
	}
	if got := fixed[r.MustPos("str")].Str(); got != "20 Baker St." {
		t.Errorf("str = %q, want s2's street", got)
	}
	if got := fixed[r.MustPos("city")].Str(); got != "Lnd" {
		t.Errorf("city = %q, want Lnd", got)
	}
	if got := fixed[r.MustPos("zip")].Str(); got != "NW1 6XE" {
		t.Errorf("zip = %q, want NW1 6XE", got)
	}
	wantCovered := relation.NewAttrSet(r.MustPosList("AC", "phn", "type", "str", "city", "zip")...)
	if !covered.Equal(wantCovered) {
		t.Errorf("covered = %v", covered.Names(r))
	}
	// Unique but not certain: FN, LN, item are not covered (Example 8).
	_, certain, err := oracle.IsCertainFix(sigma, dm, reg, paperex.InputT3())
	if err != nil || certain {
		t.Errorf("certain = %v err = %v; want unique-but-not-certain", certain, err)
	}
}

// TestExample8NoUniqueFixAfterAddingZip: extending Z_AH with zip destroys
// uniqueness for t3 — ϕ2/ϕ3 (via s1's zip) and ϕ6/ϕ7 (via s2's phone)
// disagree on str and city.
func TestExample8NoUniqueFixAfterAddingZip(t *testing.T) {
	sigma, dm := setup(t)
	r := sigma.Schema()
	z := r.MustPosList("AC", "phn", "type", "zip")
	row := pattern.MustTuple(
		[]int{r.MustPos("AC"), r.MustPos("type")},
		[]pattern.Cell{pattern.NeqStr("0800"), pattern.EqStr("1")},
	)
	reg := fix.MustRegion(z, pattern.NewTableau(row))

	_, _, unique, err := oracle.UniqueFix(sigma, dm, reg, paperex.InputT3())
	if err != nil {
		t.Fatal(err)
	}
	if unique {
		t.Fatal("t3 must not have a unique fix once zip joins Z (Example 8)")
	}
}

// TestExample9CertainFix: (Z_zmi, T_zmi) with Z = (zip, phn, type, item)
// and per-master patterns (s[zip], s[Mphn], 2, _) is a certain region;
// t1's fix covers every attribute.
func TestExample9CertainFix(t *testing.T) {
	sigma, dm := setup(t)
	r := sigma.Schema()
	rm := dm.Schema()
	z := r.MustPosList("zip", "phn", "type", "item")
	tc := pattern.NewTableau()
	for _, tm := range dm.Relation().All() {
		row := pattern.MustTuple(
			[]int{r.MustPos("zip"), r.MustPos("phn"), r.MustPos("type")},
			[]pattern.Cell{
				pattern.Eq(tm[rm.MustPos("zip")]),
				pattern.Eq(tm[rm.MustPos("Mphn")]),
				pattern.EqStr("2"),
			},
		)
		tc.Add(row)
	}
	reg := fix.MustRegion(z, tc)

	t1 := paperex.InputT1()
	if !reg.Marks(t1) {
		t.Fatal("t1 must be marked by (Z_zmi, T_zmi)")
	}
	fixed, certain, err := oracle.IsCertainFix(sigma, dm, reg, t1)
	if err != nil {
		t.Fatal(err)
	}
	if !certain {
		t.Fatal("t1 must have a certain fix w.r.t. (Z_zmi, T_zmi) — Example 9")
	}
	// Example 4: AC 020→131, str→51 Elm Row, FN Bob→Robert.
	if fixed[r.MustPos("AC")].Str() != "131" {
		t.Errorf("AC = %v", fixed[r.MustPos("AC")])
	}
	if fixed[r.MustPos("str")].Str() != "51 Elm Row" {
		t.Errorf("str = %v", fixed[r.MustPos("str")])
	}
	if fixed[r.MustPos("FN")].Str() != "Robert" {
		t.Errorf("FN = %v", fixed[r.MustPos("FN")])
	}
	if fixed[r.MustPos("LN")].Str() != "Brady" {
		t.Errorf("LN = %v", fixed[r.MustPos("LN")])
	}
	// city was already correct and stays Edi.
	if fixed[r.MustPos("city")].Str() != "Edi" {
		t.Errorf("city = %v", fixed[r.MustPos("city")])
	}
}

// TestUnmarkedTupleRejected: fixing is only justified for marked tuples.
func TestUnmarkedTupleRejected(t *testing.T) {
	sigma, dm := setup(t)
	reg := regionAH(t)
	if _, _, _, err := oracle.UniqueFix(sigma, dm, reg, paperex.InputT4()); err == nil {
		t.Fatal("unmarked tuple must be rejected")
	}
}

// TestExploreNoApplicableRules: a marked tuple nothing applies to is its
// own unique (trivial) fix with covered = Z.
func TestExploreNoApplicableRules(t *testing.T) {
	sigma, dm := setup(t)
	r := sigma.Schema()
	// Region marking t4 on item only; no rule's premise ⊆ {item}.
	z := []int{r.MustPos("item")}
	row := pattern.MustTuple(z, []pattern.Cell{pattern.Any})
	reg := fix.MustRegion(z, pattern.NewTableau(row))

	t4 := paperex.InputT4()
	fixed, covered, unique, err := oracle.UniqueFix(sigma, dm, reg, t4)
	if err != nil || !unique {
		t.Fatalf("unique=%v err=%v", unique, err)
	}
	if !fixed.Equal(t4) {
		t.Error("trivial fix must leave the tuple unchanged")
	}
	if covered.Len() != 1 {
		t.Errorf("covered = %v", covered.Positions())
	}
}

// TestExploreDoesNotMutateInput guards the Explore contract.
func TestExploreDoesNotMutateInput(t *testing.T) {
	sigma, dm := setup(t)
	r := sigma.Schema()
	t1 := paperex.InputT1()
	orig := t1.Clone()
	zSet := relation.NewAttrSet(r.MustPosList("zip", "phn", "type", "item")...)
	res := oracle.Explore(sigma, dm, t1, zSet, 0)
	if !t1.Equal(orig) {
		t.Fatal("Explore mutated the input tuple")
	}
	if len(res.Outcomes) != 1 {
		t.Fatalf("outcomes = %d", len(res.Outcomes))
	}
	if res.States == 0 {
		t.Error("state counter should be positive")
	}
}

// TestExploreStateCap: with cap 1 the search truncates and reports it.
func TestExploreStateCap(t *testing.T) {
	sigma, dm := setup(t)
	r := sigma.Schema()
	zSet := relation.NewAttrSet(r.MustPosList("zip", "phn", "type")...)
	res := oracle.Explore(sigma, dm, paperex.InputT1(), zSet, 1)
	if !res.Truncated {
		t.Fatal("cap=1 must truncate")
	}
	if res.Unique() {
		t.Fatal("truncated result must not claim uniqueness")
	}
}

// TestIdentityApplicationValidates: a rule assigning the value the tuple
// already has still validates the attribute (covered set grows).
func TestIdentityApplicationValidates(t *testing.T) {
	sigma, dm := setup(t)
	r := sigma.Schema()
	// t with correct city already; Z = {zip}: ϕ3 validates city without
	// changing it.
	tup := paperex.InputT2() // city Ldn is wrong; use t1-like fixture instead
	tup[r.MustPos("zip")] = relation.String("EH7 4AH")
	tup[r.MustPos("city")] = relation.String("Edi")
	zSet := relation.NewAttrSet(r.MustPos("zip"))
	res := oracle.Explore(sigma, dm, tup, zSet, 0)
	if len(res.Outcomes) != 1 {
		t.Fatalf("outcomes = %d", len(res.Outcomes))
	}
	covered := res.Outcomes[0].Covered
	if !covered.Has(r.MustPos("city")) {
		t.Error("city must be covered even though its value was already correct")
	}
}
