package relation

import (
	"fmt"
	"strings"
	"testing"
)

func TestNewSchemaValid(t *testing.T) {
	s, err := NewSchema("R",
		Attribute{Name: "AC", Type: TypeString},
		Attribute{Name: "score", Type: TypeInt},
	)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "R" || s.Arity() != 2 {
		t.Fatalf("unexpected schema: %v", s)
	}
	if s.Attr(0).Name != "AC" || s.Attr(1).Type != TypeInt {
		t.Fatalf("attr mismatch: %+v, %+v", s.Attr(0), s.Attr(1))
	}
}

func TestNewSchemaRejectsDuplicates(t *testing.T) {
	_, err := NewSchema("R",
		Attribute{Name: "A"}, Attribute{Name: "A"},
	)
	if err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("want duplicate error, got %v", err)
	}
}

func TestNewSchemaRejectsEmptyNames(t *testing.T) {
	if _, err := NewSchema("", Attribute{Name: "A"}); err == nil {
		t.Fatal("want error for empty relation name")
	}
	if _, err := NewSchema("R", Attribute{Name: ""}); err == nil {
		t.Fatal("want error for empty attribute name")
	}
}

// TestNewSchemaArityLimit: MaxArity attributes build, one more is an
// error (an AttrSet holds positions below MaxArity only).
func TestNewSchemaArityLimit(t *testing.T) {
	names := make([]string, MaxArity+1)
	for i := range names {
		names[i] = fmt.Sprintf("a%d", i)
	}
	if s, err := NewSchema("R", StringAttrs(names[:MaxArity]...)...); err != nil || s.Arity() != MaxArity {
		t.Fatalf("%d attributes: %v", MaxArity, err)
	}
	if _, err := NewSchema("R", StringAttrs(names...)...); err == nil {
		t.Fatalf("%d attributes must be refused", MaxArity+1)
	}
}

func TestSchemaPosResolution(t *testing.T) {
	s := StringSchema("R", "fn", "ln", "AC", "phn")
	if p, ok := s.Pos("AC"); !ok || p != 2 {
		t.Fatalf("Pos(AC) = %d,%v", p, ok)
	}
	if _, ok := s.Pos("missing"); ok {
		t.Fatal("Pos(missing) should be absent")
	}
	ps, err := s.PosList("phn", "fn")
	if err != nil || ps[0] != 3 || ps[1] != 0 {
		t.Fatalf("PosList = %v, %v", ps, err)
	}
	if _, err := s.PosList("phn", "nope"); err == nil {
		t.Fatal("PosList should fail on unknown attribute")
	}
}

func TestSchemaMustPosPanics(t *testing.T) {
	s := StringSchema("R", "A")
	defer func() {
		if recover() == nil {
			t.Fatal("MustPos should panic on unknown attribute")
		}
	}()
	s.MustPos("B")
}

func TestSchemaStringAndNames(t *testing.T) {
	s := StringSchema("R", "A", "B")
	if got := s.String(); got != "R(A, B)" {
		t.Fatalf("String() = %q", got)
	}
	names := s.AttrNames()
	if len(names) != 2 || names[0] != "A" || names[1] != "B" {
		t.Fatalf("AttrNames = %v", names)
	}
}

func TestSchemaEqual(t *testing.T) {
	a := StringSchema("R", "A", "B")
	b := StringSchema("R", "A", "B")
	c := StringSchema("R", "A", "C")
	d := StringSchema("S", "A", "B")
	if !a.Equal(b) {
		t.Error("identical schemas should be equal")
	}
	if a.Equal(c) || a.Equal(d) || a.Equal(nil) {
		t.Error("different schemas should not be equal")
	}
}
