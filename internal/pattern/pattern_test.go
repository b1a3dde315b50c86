package pattern

import (
	"testing"
	"testing/quick"

	"repro/internal/relation"
)

func TestCellMatches(t *testing.T) {
	v := relation.String("020")
	w := relation.String("131")
	if !Any.Matches(v) || !Any.Matches(relation.Null) {
		t.Error("wildcard must match everything")
	}
	if !Eq(v).Matches(v) || Eq(v).Matches(w) {
		t.Error("Eq semantics wrong")
	}
	if Neq(v).Matches(v) || !Neq(v).Matches(w) {
		t.Error("Neq semantics wrong")
	}
	// ā on Null: Null ≠ a holds
	if !Neq(v).Matches(relation.Null) {
		t.Error("Neq must match Null when constant is non-null")
	}
}

func TestCellRendering(t *testing.T) {
	if Any.String() != "_" {
		t.Errorf("wildcard renders %q", Any.String())
	}
	if EqStr("x").String() != "x" {
		t.Errorf("const renders %q", EqStr("x").String())
	}
	if NeqStr("x").String() != "!x" {
		t.Errorf("negation renders %q", NeqStr("x").String())
	}
}

func TestNewTupleValidation(t *testing.T) {
	if _, err := NewTuple([]int{0, 0}, []Cell{Any, Any}); err == nil {
		t.Error("duplicate positions must be rejected")
	}
	if _, err := NewTuple([]int{0}, []Cell{Any, Any}); err == nil {
		t.Error("length mismatch must be rejected")
	}
	if _, err := NewTuple([]int{-1}, []Cell{Any}); err == nil {
		t.Error("negative position must be rejected")
	}
}

func TestTupleMatchesPaperExample(t *testing.T) {
	// tp3[type, AC] = (1, !0800): type = 1 and AC ≠ 0800 (rule ϕ3, Example 3).
	p := MustTuple([]int{2, 0}, []Cell{EqStr("1"), NeqStr("0800")})
	match := relation.StringTuple("131", "x", "1")
	if !p.Matches(match) {
		t.Error("should match type=1, AC=131")
	}
	if p.Matches(relation.StringTuple("0800", "x", "1")) {
		t.Error("must reject AC=0800")
	}
	if p.Matches(relation.StringTuple("131", "x", "2")) {
		t.Error("must reject type=2")
	}
}

func TestEmptyTupleMatchesEverything(t *testing.T) {
	p := Empty()
	if !p.Matches(relation.StringTuple("a", "b")) || p.Len() != 0 {
		t.Error("empty pattern must match all tuples")
	}
}

func TestNormalizeDropsWildcards(t *testing.T) {
	p := MustTuple([]int{0, 1, 2}, []Cell{Any, EqStr("x"), Any})
	n := p.Normalize()
	if n.Len() != 1 {
		t.Fatalf("normalized length %d", n.Len())
	}
	pos, c := n.CellAt(0)
	if pos != 1 || !c.Equal(EqStr("x")) {
		t.Fatalf("normalized cell (%d,%v)", pos, c)
	}
	// semantics preserved (property check over small random tuples)
	f := func(a, b, c2 string) bool {
		tu := relation.StringTuple(a, b, c2)
		return p.Matches(tu) == n.Matches(tu)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIsConcreteAndPositive(t *testing.T) {
	conc := MustTuple([]int{0}, []Cell{EqStr("a")})
	wild := MustTuple([]int{0}, []Cell{Any})
	neg := MustTuple([]int{0}, []Cell{NeqStr("a")})
	if !conc.IsConcrete() || wild.IsConcrete() || neg.IsConcrete() {
		t.Error("IsConcrete wrong")
	}
	if !conc.IsPositive() || !wild.IsPositive() || neg.IsPositive() {
		t.Error("IsPositive wrong")
	}
}

func TestWithCellReplaceAndAppend(t *testing.T) {
	p := MustTuple([]int{0}, []Cell{EqStr("old")})
	q := p.WithCell(0, EqStr("new"))
	r := p.WithCell(3, EqStr("added"))
	if c, _ := q.CellFor(0); !c.Equal(EqStr("new")) {
		t.Error("WithCell replace failed")
	}
	if c, _ := p.CellFor(0); !c.Equal(EqStr("old")) {
		t.Error("WithCell mutated receiver")
	}
	if c, ok := r.CellFor(3); !ok || !c.Equal(EqStr("added")) {
		t.Error("WithCell append failed")
	}
}

func TestTupleEqualOrderIndependent(t *testing.T) {
	a := MustTuple([]int{0, 1}, []Cell{EqStr("x"), Any})
	b := MustTuple([]int{1, 0}, []Cell{Any, EqStr("x")})
	if !a.Equal(b) {
		t.Error("Equal must be order-independent")
	}
	c := MustTuple([]int{0, 1}, []Cell{EqStr("y"), Any})
	if a.Equal(c) {
		t.Error("different cells must not be equal")
	}
	if a.Key() != b.Key() {
		t.Error("Key must be order-independent")
	}
	if a.Key() == c.Key() {
		t.Error("different patterns must have different keys")
	}
}

func TestCellForImplicitWildcard(t *testing.T) {
	p := MustTuple([]int{1}, []Cell{EqStr("v")})
	c, ok := p.CellFor(0)
	if ok || c.Kind != Wildcard {
		t.Error("unmentioned attribute should report implicit wildcard, ok=false")
	}
}

func TestFormatUsesSchemaNames(t *testing.T) {
	s := relation.StringSchema("R", "AC", "city")
	p := MustTuple([]int{0}, []Cell{EqStr("0800")})
	if got := p.Format(s); got != "[AC] = (0800)" {
		t.Errorf("Format = %q", got)
	}
	if Empty().Format(s) != "()" {
		t.Error("empty pattern formats as ()")
	}
}
