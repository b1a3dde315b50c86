package fix_test

import (
	"testing"

	"repro/internal/fix"
	"repro/internal/paperex"
	"repro/internal/pattern"
	"repro/internal/relation"
)

// regionAH builds (Z_AH, T_AH) of Example 6: Z = (AC, phn, type),
// Tc = {(!0800, _, 1)}.
func regionAH(t *testing.T) *fix.Region {
	t.Helper()
	r := paperex.SchemaR()
	z := r.MustPosList("AC", "phn", "type")
	row := pattern.MustTuple(
		[]int{r.MustPos("AC"), r.MustPos("type")},
		[]pattern.Cell{pattern.NeqStr("0800"), pattern.EqStr("1")},
	)
	return fix.MustRegion(z, pattern.NewTableau(row))
}

func TestNewRegionValidation(t *testing.T) {
	if _, err := fix.NewRegion([]int{0, 0}, nil); err == nil {
		t.Error("duplicate Z attributes must be rejected")
	}
	row := pattern.MustTuple([]int{5}, []pattern.Cell{pattern.Any})
	if _, err := fix.NewRegion([]int{0, 1}, pattern.NewTableau(row)); err == nil {
		t.Error("tableau outside Z must be rejected")
	}
	reg, err := fix.NewRegion([]int{0, 1}, nil)
	if err != nil || reg.Tableau().Len() != 0 {
		t.Errorf("nil tableau should become empty tableau: %v, %v", reg, err)
	}
}

func TestRegionMarksExample6(t *testing.T) {
	reg := regionAH(t)
	if !reg.Marks(paperex.InputT3()) {
		t.Error("t3 must be marked by (Z_AH, T_AH) — Example 6")
	}
	// t4 has AC = 0800, so the !0800 cell rejects it.
	if reg.Marks(paperex.InputT4()) {
		t.Error("t4 must not be marked (AC = 0800)")
	}
	// t1 has type = 2.
	if reg.Marks(paperex.InputT1()) {
		t.Error("t1 must not be marked (type = 2)")
	}
}

func TestRegionExtendExample7(t *testing.T) {
	// ext(Z_AH, T_AH, ϕ3) adds the rhs attributes; Example 7 extends by
	// str, city, zip one rule at a time.
	r := paperex.SchemaR()
	reg := regionAH(t)
	ext := reg.Extend(r.MustPos("str")).Extend(r.MustPos("city")).Extend(r.MustPos("zip"))
	want := relation.NewAttrSet(r.MustPosList("AC", "phn", "type", "str", "city", "zip")...)
	if !ext.ZSet().Equal(want) {
		t.Fatalf("extended Z = %v", ext.ZSet().Names(r))
	}
	// The extended pattern is (!0800, _, 1, _, _, _): t3 remains marked.
	if !ext.Marks(paperex.InputT3()) {
		t.Error("t3 must stay marked after extension")
	}
	// Extending by an attribute already in Z is the identity.
	if ext.Extend(r.MustPos("zip")) != ext {
		t.Error("Extend must be identity for attributes already in Z")
	}
	// Original region untouched.
	if reg.ZSet().Len() != 3 {
		t.Error("Extend must not mutate the receiver")
	}
}

func TestRegionAccessors(t *testing.T) {
	r := paperex.SchemaR()
	reg := regionAH(t)
	if len(reg.Z()) != 3 || !reg.ZSet().Has(r.MustPos("AC")) || reg.ZSet().Has(r.MustPos("zip")) {
		t.Error("Z/ZSet accessors wrong")
	}
}
