package paperex

// Golden checks against the paper's Example 1 tables (Fig. 1a/1b): the
// supplier and master schemas, the master tuples s1/s2, the input tuples
// t1–t4, and the Σ0 rule set of Example 11. Every worked example in the
// repository routes through these fixtures, so a silent drift here would
// invalidate the paper-conformance tests everywhere else.

import (
	"testing"

	"repro/internal/relation"
)

func TestSchemasMatchFig1(t *testing.T) {
	wantR := []string{"FN", "LN", "AC", "phn", "type", "str", "city", "zip", "item"}
	r := SchemaR()
	if r.Arity() != len(wantR) {
		t.Fatalf("R arity = %d, want %d", r.Arity(), len(wantR))
	}
	for i, name := range wantR {
		if r.Attr(i).Name != name {
			t.Fatalf("R attr %d = %q, want %q", i, r.Attr(i).Name, name)
		}
	}
	wantRm := []string{"FN", "LN", "AC", "Hphn", "Mphn", "str", "city", "zip", "DOB", "gender"}
	rm := SchemaRm()
	if rm.Arity() != len(wantRm) {
		t.Fatalf("Rm arity = %d, want %d", rm.Arity(), len(wantRm))
	}
	for i, name := range wantRm {
		if rm.Attr(i).Name != name {
			t.Fatalf("Rm attr %d = %q, want %q", i, rm.Attr(i).Name, name)
		}
	}
}

// cellsOf renders a tuple back to plain strings (Null as "").
func cellsOf(tup relation.Tuple) []string {
	out := make([]string, len(tup))
	for i, v := range tup {
		if !v.IsNull() {
			out[i] = v.Str()
		}
	}
	return out
}

func assertCells(t *testing.T, label string, tup relation.Tuple, want []string) {
	t.Helper()
	got := cellsOf(tup)
	if len(got) != len(want) {
		t.Fatalf("%s: arity %d, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s cell %d = %q, want %q (full: %v)", label, i, got[i], want[i], got)
		}
	}
}

func TestMasterTableauMatchesFig1b(t *testing.T) {
	s1, s2 := MasterTuples()
	assertCells(t, "s1", s1, []string{
		"Robert", "Brady", "131", "6884563", "079172485",
		"51 Elm Row", "Edi", "EH7 4AH", "11/11/55", "M"})
	assertCells(t, "s2", s2, []string{
		"Mark", "Smith", "020", "6884563", "075568485",
		"20 Baker St.", "Lnd", "NW1 6XE", "25/12/67", "M"})

	dm := MasterRelation()
	if dm.Len() != 2 {
		t.Fatalf("Dm has %d tuples, want 2", dm.Len())
	}
	if !dm.Tuple(0).Equal(s1) || !dm.Tuple(1).Equal(s2) {
		t.Fatal("MasterRelation must hold s1, s2 in order")
	}
	if !dm.Schema().Equal(SchemaRm()) {
		t.Fatal("MasterRelation must be an Rm instance")
	}
}

func TestInputTuplesMatchFig1a(t *testing.T) {
	assertCells(t, "t1", InputT1(), []string{
		"Bob", "Brady", "020", "079172485", "2",
		"501 Elm St.", "Edi", "EH7 4AH", "CD"})
	assertCells(t, "t2", InputT2(), []string{
		"Robert", "Brady", "131", "6884563", "1",
		"", "Ldn", "", "CD"})
	// t2's empty cells are the paper's missing values, not empty strings.
	t2 := InputT2()
	if !t2[5].IsNull() || !t2[7].IsNull() {
		t.Fatal("t2 str/zip must be Null (missing), not empty strings")
	}
	assertCells(t, "t3", InputT3(), []string{
		"Mary", "Burn", "020", "6884563", "1",
		"49 Elm Row", "Lnd", "EH7 4AH", "CD"})
	assertCells(t, "t4", InputT4(), []string{
		"Joe", "Blake", "0800", "5556666", "1",
		"1 Main St", "NYC", "ZZ9 9ZZ", "TV"})
}

func TestSigma0MatchesExample11(t *testing.T) {
	sigma := Sigma0()
	if sigma.Len() != 9 {
		t.Fatalf("Σ0 has %d rules, want 9", sigma.Len())
	}
	r := SchemaR()
	rm := SchemaRm()
	pos := func(s *relation.Schema, name string) int {
		p, ok := s.Pos(name)
		if !ok {
			t.Fatalf("attribute %q missing", name)
		}
		return p
	}
	// name -> lhs attrs, master lhs attrs, rhs, master rhs
	want := []struct {
		name   string
		x, xm  []string
		b, bm  string
		hasPat bool
	}{
		{"phi1", []string{"zip"}, []string{"zip"}, "AC", "AC", false},
		{"phi2", []string{"zip"}, []string{"zip"}, "str", "str", false},
		{"phi3", []string{"zip"}, []string{"zip"}, "city", "city", false},
		{"phi4", []string{"phn"}, []string{"Mphn"}, "FN", "FN", true},
		{"phi5", []string{"phn"}, []string{"Mphn"}, "LN", "LN", true},
		{"phi6", []string{"AC", "phn"}, []string{"AC", "Hphn"}, "str", "str", true},
		{"phi7", []string{"AC", "phn"}, []string{"AC", "Hphn"}, "city", "city", true},
		{"phi8", []string{"AC", "phn"}, []string{"AC", "Hphn"}, "zip", "zip", true},
		{"phi9", []string{"AC"}, []string{"AC"}, "city", "city", true},
	}
	for i, w := range want {
		ru := sigma.Rule(i)
		if ru.Name() != w.name {
			t.Fatalf("rule %d named %q, want %q", i, ru.Name(), w.name)
		}
		x, xm := ru.LHS(), ru.LHSM()
		if len(x) != len(w.x) {
			t.Fatalf("%s lhs arity %d, want %d", w.name, len(x), len(w.x))
		}
		for j := range w.x {
			if x[j] != pos(r, w.x[j]) || xm[j] != pos(rm, w.xm[j]) {
				t.Fatalf("%s lhs pair %d = (%d,%d), want (%s,%s)", w.name, j, x[j], xm[j], w.x[j], w.xm[j])
			}
		}
		if ru.RHS() != pos(r, w.b) || ru.RHSM() != pos(rm, w.bm) {
			t.Fatalf("%s rhs = (%d,%d), want (%s,%s)", w.name, ru.RHS(), ru.RHSM(), w.b, w.bm)
		}
		if (ru.Pattern().Len() > 0) != w.hasPat {
			t.Fatalf("%s pattern presence = %v, want %v", w.name, ru.Pattern().Len() > 0, w.hasPat)
		}
	}
}
