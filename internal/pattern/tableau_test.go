package pattern

import (
	"testing"

	"repro/internal/relation"
)

func rowEq(pos int, v string) Tuple {
	return MustTuple([]int{pos}, []Cell{EqStr(v)})
}

func TestTableauMarksAnyRow(t *testing.T) {
	tb := NewTableau(rowEq(0, "a"), rowEq(0, "b"))
	if !tb.Marks(relation.StringTuple("a")) || !tb.Marks(relation.StringTuple("b")) {
		t.Error("tableau must mark tuples matching any row")
	}
	if tb.Marks(relation.StringTuple("c")) {
		t.Error("tableau must not mark non-matching tuples")
	}
}

func TestTableauDeduplicates(t *testing.T) {
	tb := NewTableau(rowEq(0, "a"), rowEq(0, "a"))
	if tb.Len() != 1 {
		t.Fatalf("Len = %d, want deduplicated 1", tb.Len())
	}
	tb.Add(rowEq(0, "a"))
	if tb.Len() != 1 {
		t.Fatal("Add must deduplicate against existing rows")
	}
	tb.Add(rowEq(0, "b"))
	if tb.Len() != 2 {
		t.Fatal("distinct rows must both be kept")
	}
}

func TestTableauConcretePositiveFlags(t *testing.T) {
	conc := NewTableau(rowEq(0, "a"))
	if !conc.IsConcrete() || !conc.IsPositive() {
		t.Error("constant-only tableau should be concrete and positive")
	}
	neg := NewTableau(MustTuple([]int{0}, []Cell{NeqStr("a")}))
	if neg.IsConcrete() || neg.IsPositive() {
		t.Error("negation tableau is neither concrete nor positive")
	}
	wild := NewTableau(MustTuple([]int{0}, []Cell{Any}))
	if wild.IsConcrete() || !wild.IsPositive() {
		t.Error("wildcard tableau is positive but not concrete")
	}
}
