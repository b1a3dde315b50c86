package fix_test

import (
	"errors"
	"testing"

	"repro/internal/fix"
	"repro/internal/oracle"
	"repro/internal/paperex"
	"repro/internal/relation"
	"repro/internal/rule"
)

// TestTransFixExample12 replays Example 12: fixing t1 with Z = {zip}
// validates AC, str and city (city's value is already correct), leaving
// FN/LN/phn/type/item untouched.
func TestTransFixExample12(t *testing.T) {
	sigma, dm := setup(t)
	r := sigma.Schema()
	g := rule.NewDepGraph(sigma)

	t1 := paperex.InputT1()
	zSet := relation.NewAttrSet(r.MustPos("zip"))
	fixedAttrs, err := fix.TransFix(g, dm, t1, &zSet)
	if err != nil {
		t.Fatal(err)
	}
	want := relation.NewAttrSet(r.MustPosList("zip", "AC", "str", "city")...)
	if !zSet.Equal(want) {
		t.Fatalf("Z' = %v, want zip+AC+str+city", zSet.Names(r))
	}
	if len(fixedAttrs) != 3 {
		t.Fatalf("fixed %d attributes, want 3 (AC, str, city)", len(fixedAttrs))
	}
	if t1[r.MustPos("AC")].Str() != "131" {
		t.Errorf("AC = %v, want 131", t1[r.MustPos("AC")])
	}
	if t1[r.MustPos("str")].Str() != "51 Elm Row" {
		t.Errorf("str = %v, want 51 Elm Row", t1[r.MustPos("str")])
	}
	if t1[r.MustPos("city")].Str() != "Edi" {
		t.Errorf("city = %v, want Edi", t1[r.MustPos("city")])
	}
	// FN stays Bob: ϕ4 needs phn and type validated.
	if t1[r.MustPos("FN")].Str() != "Bob" {
		t.Errorf("FN = %v, want untouched Bob", t1[r.MustPos("FN")])
	}
}

// TestTransFixCascade: validating (type, AC, phn) on t2 fixes str, city,
// zip from s1 via ϕ6–ϕ8, then the new zip enables nothing further (AC
// already validated) — Example 2's eR3 behaviour.
func TestTransFixCascade(t *testing.T) {
	sigma, dm := setup(t)
	r := sigma.Schema()
	g := rule.NewDepGraph(sigma)

	t2 := paperex.InputT2()
	zSet := relation.NewAttrSet(r.MustPosList("type", "AC", "phn")...)
	if _, err := fix.TransFix(g, dm, t2, &zSet); err != nil {
		t.Fatal(err)
	}
	if t2[r.MustPos("str")].Str() != "51 Elm Row" {
		t.Errorf("str = %v (enrichment of missing value)", t2[r.MustPos("str")])
	}
	if t2[r.MustPos("city")].Str() != "Edi" {
		t.Errorf("city = %v (correction of Ldn)", t2[r.MustPos("city")])
	}
	if t2[r.MustPos("zip")].Str() != "EH7 4AH" {
		t.Errorf("zip = %v (enrichment)", t2[r.MustPos("zip")])
	}
}

// TestTransFixConflictDetected: on t3 with both zip and (AC, phn, type)
// validated, ϕ2/ϕ6 disagree on str — TransFix must report the conflict
// rather than guess (Example 5's scenario).
func TestTransFixConflictDetected(t *testing.T) {
	sigma, dm := setup(t)
	r := sigma.Schema()
	g := rule.NewDepGraph(sigma)

	t3 := paperex.InputT3()
	zSet := relation.NewAttrSet(r.MustPosList("zip", "AC", "phn", "type")...)
	_, err := fix.TransFix(g, dm, t3, &zSet)
	var conflict *fix.ConflictError
	if !errors.As(err, &conflict) {
		t.Fatalf("want ConflictError, got %v", err)
	}
	if len(conflict.Values) < 2 {
		t.Fatalf("conflict values = %v", conflict.Values)
	}
	if conflict.Error() == "" {
		t.Error("ConflictError must render a message")
	}
	if !errors.Is(err, fix.ErrInconsistent) {
		t.Error("ConflictError must match ErrInconsistent via errors.Is")
	}
}

// TestTransFixAgreesWithNaiveFix cross-checks the dependency-graph
// implementation against the naive fixpoint baseline on all fixtures.
func TestTransFixAgreesWithNaiveFix(t *testing.T) {
	sigma, dm := setup(t)
	r := sigma.Schema()
	g := rule.NewDepGraph(sigma)

	starts := []struct {
		name string
		tup  relation.Tuple
		z    []string
	}{
		{"t1-zip", paperex.InputT1(), []string{"zip"}},
		{"t1-phone", paperex.InputT1(), []string{"phn", "type"}},
		{"t2-phone", paperex.InputT2(), []string{"type", "AC", "phn"}},
		{"t4-all-free", paperex.InputT4(), []string{"item"}},
		{"t1-everything", paperex.InputT1(), []string{"zip", "phn", "type", "item"}},
	}
	for _, s := range starts {
		ta := s.tup.Clone()
		tb := s.tup.Clone()
		za := relation.NewAttrSet(r.MustPosList(s.z...)...)
		zb := za
		_, errA := fix.TransFix(g, dm, ta, &za)
		_, errB := oracle.NaiveFix(sigma, dm, tb, &zb)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("%s: error mismatch %v vs %v", s.name, errA, errB)
		}
		if errA != nil {
			continue
		}
		if !ta.Equal(tb) {
			t.Errorf("%s: tuples diverge:\n transfix %v\n naive    %v", s.name, ta, tb)
		}
		if !za.Equal(zb) {
			t.Errorf("%s: validated sets diverge: %v vs %v", s.name, za.Names(r), zb.Names(r))
		}
	}
}

// TestTransFixMatchesExploreWhenUnique: when the oracle says the fix is
// unique, TransFix must produce exactly that tuple and covered set.
func TestTransFixMatchesExploreWhenUnique(t *testing.T) {
	sigma, dm := setup(t)
	r := sigma.Schema()
	g := rule.NewDepGraph(sigma)

	t1 := paperex.InputT1()
	zSet := relation.NewAttrSet(r.MustPosList("zip", "phn", "type", "item")...)
	res := oracle.Explore(sigma, dm, t1, zSet, 0)
	if !res.Unique() {
		t.Fatal("fixture should have a unique fix")
	}
	tf := t1.Clone()
	zf := zSet
	if _, err := fix.TransFix(g, dm, tf, &zf); err != nil {
		t.Fatal(err)
	}
	if !tf.Equal(res.Outcomes[0].Tuple) {
		t.Errorf("TransFix %v != Explore %v", tf, res.Outcomes[0].Tuple)
	}
	if !zf.Equal(res.Outcomes[0].Covered) {
		t.Errorf("covered sets differ: %v vs %v", zf.Names(r), res.Outcomes[0].Covered.Names(r))
	}
}
