package experiments

import (
	"math"
	"testing"

	"repro/internal/relation"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestCompareCellsAllCredited(t *testing.T) {
	input := relation.StringTuple("a", "b", "c", "d")
	truth := relation.StringTuple("A", "b", "C", "D")
	// fixer corrected position 0, wrongly changed position 1, corrected 2,
	// missed 3.
	result := relation.StringTuple("A", "x", "C", "d")
	o := compareCells(input, truth, result, nil)
	if o.Erroneous != 3 || o.Changed != 3 || o.Corrected != 2 {
		t.Fatalf("outcome = %+v", o)
	}
	if !almost(o.Precision(), 2.0/3) || !almost(o.Recall(), 2.0/3) {
		t.Fatalf("p=%v r=%v", o.Precision(), o.Recall())
	}
	if !almost(o.F1(), 2.0/3) {
		t.Fatalf("f1=%v", o.F1())
	}
}

func TestCompareCellsCreditedSubset(t *testing.T) {
	input := relation.StringTuple("a", "b")
	truth := relation.StringTuple("A", "B")
	result := relation.StringTuple("A", "B")
	credit := relation.NewAttrSet(0) // position 1 was fixed by the user
	o := compareCells(input, truth, result, &credit)
	if o.Erroneous != 2 || o.Changed != 1 || o.Corrected != 1 {
		t.Fatalf("outcome = %+v", o)
	}
	if !almost(o.Recall(), 0.5) {
		t.Fatalf("recall = %v (user fixes must not count)", o.Recall())
	}
}

func TestCompareCellsCleanTuple(t *testing.T) {
	tup := relation.StringTuple("a")
	o := compareCells(tup, tup, tup, nil)
	if o.Erroneous != 0 || o.Changed != 0 || o.Corrected != 0 {
		t.Fatalf("outcome = %+v", o)
	}
	if o.Precision() != 1 || o.Recall() != 1 {
		t.Fatal("clean tuples score perfect precision/recall")
	}
}

func TestCellOutcomeAdd(t *testing.T) {
	a := cellOutcome{Erroneous: 1, Changed: 2, Corrected: 1}
	b := cellOutcome{Erroneous: 3, Changed: 1, Corrected: 1}
	a.Add(b)
	if a.Erroneous != 4 || a.Changed != 3 || a.Corrected != 2 {
		t.Fatalf("sum = %+v", a)
	}
}

func TestF1Zero(t *testing.T) {
	o := cellOutcome{Erroneous: 5, Changed: 0, Corrected: 0}
	// precision 1 (nothing changed), recall 0 → F1 = 0.
	if got := o.F1(); got != 0 {
		t.Fatalf("F1 = %v", got)
	}
}

func TestCompareTuple(t *testing.T) {
	input := relation.StringTuple("a", "b")
	truth := relation.StringTuple("A", "b")
	fixedRight := relation.StringTuple("A", "b")
	fixedWrong := relation.StringTuple("z", "b")

	o := compareTuple(input, truth, fixedRight)
	if o.Erroneous != 1 || o.Corrected != 1 {
		t.Fatalf("right fix: %+v", o)
	}
	o = compareTuple(input, truth, fixedWrong)
	if o.Erroneous != 1 || o.Corrected != 0 {
		t.Fatalf("wrong fix: %+v", o)
	}
	o = compareTuple(truth, truth, truth)
	if o.Erroneous != 0 || o.Recall() != 1 {
		t.Fatalf("clean: %+v", o)
	}
	var agg tupleOutcome
	agg.Add(tupleOutcome{Erroneous: 2, Corrected: 1})
	agg.Add(tupleOutcome{Erroneous: 2, Corrected: 2})
	if !almost(agg.Recall(), 0.75) {
		t.Fatalf("aggregate recall = %v", agg.Recall())
	}
}
