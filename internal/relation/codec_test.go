package relation_test

import (
	"encoding/json"
	"testing"
	"unicode/utf8"

	"repro/internal/relation"
)

// TestValueJSONRoundTrip: every kind survives marshal → unmarshal, and
// the wire form is native JSON.
func TestValueJSONRoundTrip(t *testing.T) {
	cases := []struct {
		v    relation.Value
		wire string
	}{
		{relation.Null, `null`},
		{relation.String("Edi"), `"Edi"`},
		{relation.String(""), `""`},
		{relation.String("123"), `"123"`}, // string of digits stays a string
		{relation.String("with \"quotes\" and ⊥"), `"with \"quotes\" and ⊥"`},
		{relation.Int(0), `0`},
		{relation.Int(-42), `-42`},
		{relation.Int(1<<62 + 7), `4611686018427387911`},
	}
	for _, c := range cases {
		b, err := json.Marshal(c.v)
		if err != nil {
			t.Fatalf("marshal %v: %v", c.v, err)
		}
		if string(b) != c.wire {
			t.Errorf("marshal %v = %s, want %s", c.v, b, c.wire)
		}
		var got relation.Value
		if err := json.Unmarshal(b, &got); err != nil {
			t.Fatalf("unmarshal %s: %v", b, err)
		}
		if !got.Equal(c.v) {
			t.Errorf("round-trip %v → %s → %v", c.v, b, got)
		}
	}
}

// TestValueJSONRejects: floats, exponents and malformed input fail
// loudly instead of silently truncating.
func TestValueJSONRejects(t *testing.T) {
	for _, wire := range []string{`1.5`, `1e3`, `true`, `{}`, `[1]`} {
		var v relation.Value
		if err := json.Unmarshal([]byte(wire), &v); err == nil {
			t.Errorf("unmarshal %s: want error, got %v", wire, v)
		}
	}
}

// TestTupleJSONRoundTrip: tuples (slices of values) round-trip through
// the element codec, mixed kinds included.
func TestTupleJSONRoundTrip(t *testing.T) {
	in := relation.TupleOf(relation.String("Brady"), relation.Null, relation.Int(131))
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != `["Brady",null,131]` {
		t.Fatalf("wire form %s", b)
	}
	var out relation.Tuple
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Equal(in) {
		t.Fatalf("round-trip %v → %v", in, out)
	}
}

// TestAttrSetJSONRoundTrip: the wire form is the sorted position list,
// and a position outside [0, MaxArity) is refused, not panicked on.
func TestAttrSetJSONRoundTrip(t *testing.T) {
	s := relation.NewAttrSet(7, 2, 5)
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != `[2,5,7]` {
		t.Fatalf("wire form %s, want [2,5,7]", b)
	}

	var got relation.AttrSet
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if !got.Equal(s) {
		t.Fatalf("round-trip %v → %v", s.Positions(), got.Positions())
	}

	var empty relation.AttrSet
	eb, _ := json.Marshal(empty)
	if string(eb) != `[]` {
		t.Fatalf("empty set wire form %s", eb)
	}
	var back relation.AttrSet
	if err := json.Unmarshal([]byte(`null`), &back); err != nil {
		t.Fatalf("null must decode to the empty set: %v", err)
	}
	if back.Len() != 0 {
		t.Fatalf("null decoded to %v", back.Positions())
	}

	for _, in := range []string{`[-1]`, `[64]`, `[2,65]`} {
		var bad relation.AttrSet
		if err := json.Unmarshal([]byte(in), &bad); err == nil {
			t.Fatalf("%s must be rejected", in)
		}
	}
	var top relation.AttrSet
	if err := json.Unmarshal([]byte(`[63]`), &top); err != nil || !top.Has(63) {
		t.Fatalf("[63] decoded to %v, %v", top.Positions(), err)
	}
}

// FuzzValueJSON: for any string, the appender writes exactly the bytes
// json.Marshal writes for it — HTML escapes, U+2028/U+2029, control
// bytes and invalid UTF-8 included — and it reads back as the same value
// when the string is valid UTF-8 (invalid bytes become U+FFFD).
func FuzzValueJSON(f *testing.F) {
	for _, s := range []string{"", "Edi", `"\`, "<a href='x'>&amp;</a>", "\b\f\n\r\t\x00\x1f\x7f",
		"  ", "⊥ Ünïcode 🙂", "\xff\xfe", "a\xc3", "\xed\xa0\x80", "\xf4\x90\x80\x80"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		v := relation.String(s)
		if got := v.AppendJSON(nil); string(got) != string(want) {
			t.Fatalf("AppendJSON(%q) = %s, json.Marshal = %s", s, got, want)
		}
		if got := v.AppendJSON([]byte("[1,")); string(got) != "[1,"+string(want) {
			t.Fatalf("AppendJSON(%q) onto a prefix = %s", s, got)
		}
		var back relation.Value
		if err := json.Unmarshal(v.AppendJSON(nil), &back); err != nil {
			t.Fatalf("%q: %v", s, err)
		}
		if utf8.ValidString(s) && !back.Equal(v) {
			t.Fatalf("%q read back as %v", s, back)
		}
	})
}
