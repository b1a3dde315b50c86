package relation

import (
	"bytes"
	"strings"
	"testing"
)

func TestRelationAppendAndAccess(t *testing.T) {
	s := StringSchema("R", "A", "B")
	r := NewRelation(s)
	if err := r.Append(StringTuple("1", "2"), StringTuple("3", "4")); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 2 || r.Tuple(1)[0].Str() != "3" {
		t.Fatalf("unexpected relation state: %d tuples, second %v", r.Len(), r.Tuple(1))
	}
	if r.Schema() != s {
		t.Fatal("Schema() should return the construction schema")
	}
}

func TestRelationAppendArityCheck(t *testing.T) {
	r := NewRelation(StringSchema("R", "A", "B"))
	if err := r.Append(StringTuple("only-one")); err == nil {
		t.Fatal("want arity error")
	}
}

// TestFromTuplesNeverWritesCallerSlice: the relation aliases the caller's
// slice but an Append must not land in its spare capacity.
func TestFromTuplesNeverWritesCallerSlice(t *testing.T) {
	s := StringSchema("R", "A")
	backing := make([]Tuple, 2, 4)
	backing[0], backing[1] = StringTuple("x"), StringTuple("y")
	r, err := FromTuples(s, backing)
	if err != nil {
		t.Fatal(err)
	}
	r.MustAppend(StringTuple("z"))
	if r.Len() != 3 || r.Tuple(2)[0].Str() != "z" || &r.Tuple(0)[0] != &backing[0][0] {
		t.Fatalf("relation after Append: %d tuples", r.Len())
	}
	if got := backing[:3][2]; got != nil {
		t.Fatalf("Append wrote %v into the caller's spare capacity", got)
	}
	if _, err := FromTuples(s, []Tuple{StringTuple("a", "b")}); err == nil {
		t.Fatal("want arity error")
	}
}

func TestRelationCloneDeep(t *testing.T) {
	r := NewRelation(StringSchema("R", "A"))
	r.MustAppend(StringTuple("x"))
	c := r.Clone()
	c.Tuple(0)[0] = String("y")
	if r.Tuple(0)[0].Str() != "x" {
		t.Fatal("Clone must deep-copy tuples")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	s := MustSchema("mix",
		Attribute{Name: "name", Type: TypeString},
		Attribute{Name: "score", Type: TypeInt},
	)
	r := NewRelation(s)
	r.MustAppend(
		TupleOf(String("alpha, with comma"), Int(10)),
		TupleOf(String(`quoted "beta"`), Int(-3)),
		TupleOf(Null, Null),
	)
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(s, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != r.Len() {
		t.Fatalf("round trip length %d != %d", back.Len(), r.Len())
	}
	for i := range r.Len() {
		if !back.Tuple(i).Equal(r.Tuple(i)) {
			t.Errorf("row %d: got %v want %v", i, back.Tuple(i), r.Tuple(i))
		}
	}
}

func TestReadCSVHeaderMismatch(t *testing.T) {
	s := StringSchema("R", "A", "B")
	_, err := ReadCSV(s, strings.NewReader("A,C\n1,2\n"))
	if err == nil || !strings.Contains(err.Error(), "header mismatch") {
		t.Fatalf("want header mismatch, got %v", err)
	}
}

func TestReadCSVBadInt(t *testing.T) {
	s := MustSchema("R", Attribute{Name: "N", Type: TypeInt})
	_, err := ReadCSV(s, strings.NewReader("N\nxyz\n"))
	if err == nil {
		t.Fatal("want int decode error")
	}
}
