package relation

import (
	"testing"
	"testing/quick"
)

func TestValueConstructorsAndAccessors(t *testing.T) {
	s := String("Edi")
	if s.Kind() != KindString || s.Str() != "Edi" || s.IsNull() {
		t.Fatalf("String: got kind=%v str=%q null=%v", s.Kind(), s.Str(), s.IsNull())
	}
	i := Int(131)
	if i.Kind() != KindInt || i.Int64() != 131 || i.IsNull() {
		t.Fatalf("Int: got kind=%v num=%d null=%v", i.Kind(), i.Int64(), i.IsNull())
	}
	if !Null.IsNull() || Null.Kind() != KindNull {
		t.Fatalf("Null: got kind=%v", Null.Kind())
	}
}

func TestValueEqual(t *testing.T) {
	cases := []struct {
		a, b Value
		want bool
	}{
		{String("a"), String("a"), true},
		{String("a"), String("b"), false},
		{Int(1), Int(1), true},
		{Int(1), Int(2), false},
		{Null, Null, true},
		{String("1"), Int(1), false},
		{String(""), Null, false},
	}
	for _, c := range cases {
		if got := c.a.Equal(c.b); got != c.want {
			t.Errorf("%v.Equal(%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestValueOrderTotal(t *testing.T) {
	vals := []Value{Null, String(""), String("a"), String("b"), Int(-3), Int(0), Int(7)}
	for i, a := range vals {
		for j, b := range vals {
			switch {
			case i == j:
				if !a.Equal(b) || a.Less(b) {
					t.Errorf("want %v = %v", a, b)
				}
			case i < j:
				if !a.Less(b) || a.Equal(b) {
					t.Errorf("want %v < %v", a, b)
				}
			default:
				if a.Less(b) || a.Equal(b) {
					t.Errorf("want %v > %v", a, b)
				}
			}
		}
	}
}

func TestValueOrderAntisymmetryProperty(t *testing.T) {
	f := func(a, b int64) bool {
		x, y := Int(a), Int(b)
		if a == b {
			return x.Equal(y) && !x.Less(y)
		}
		return x.Less(y) != y.Less(x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	g := func(a, b string) bool {
		x, y := String(a), String(b)
		if a == b {
			return x.Equal(y) && !x.Less(y)
		}
		return x.Less(y) != y.Less(x)
	}
	if err := quick.Check(g, nil); err != nil {
		t.Fatal(err)
	}
}

func TestValueAsMapKey(t *testing.T) {
	m := map[Value]int{}
	m[String("x")] = 1
	m[Int(5)] = 2
	m[Null] = 3
	if m[String("x")] != 1 || m[Int(5)] != 2 || m[Null] != 3 {
		t.Fatalf("map lookups failed: %v", m)
	}
	if _, ok := m[String("5")]; ok {
		t.Fatal("String(5) must not collide with Int(5)")
	}
}

func TestDecodeValueRoundTrip(t *testing.T) {
	cases := []struct {
		v Value
		t Type
	}{
		{String("hello"), TypeString},
		{Int(42), TypeInt},
		{Int(-9), TypeInt},
		{Null, TypeString},
		{Null, TypeInt},
	}
	for _, c := range cases {
		got, err := DecodeValue(c.v.Encode(), c.t)
		if err != nil {
			t.Fatalf("DecodeValue(%q): %v", c.v.Encode(), err)
		}
		if !got.Equal(c.v) {
			t.Errorf("round trip %v: got %v", c.v, got)
		}
	}
}

func TestDecodeValueErrors(t *testing.T) {
	if _, err := DecodeValue("not-a-number", TypeInt); err == nil {
		t.Fatal("expected error decoding non-numeric int cell")
	}
}

func TestValueStringRendering(t *testing.T) {
	if Null.String() != "⊥" {
		t.Errorf("Null renders as %q", Null.String())
	}
	if Int(12).String() != "12" {
		t.Errorf("Int renders as %q", Int(12).String())
	}
	if String("Ldn").String() != "Ldn" {
		t.Errorf("String renders as %q", String("Ldn").String())
	}
	if KindNull.String() != "null" || KindString.String() != "string" || KindInt.String() != "int" {
		t.Error("Kind.String mismatch")
	}
	if TypeString.String() != "string" || TypeInt.String() != "int" {
		t.Error("Type.String mismatch")
	}
}
