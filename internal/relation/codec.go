package relation

// JSON codecs for the wire-facing types. Values map onto native JSON —
// Null ↔ null, String ↔ string, Int ↔ number — so serialized tuples read
// naturally in HTTP requests and fix results, and the mapping is
// unambiguous without schema context (unlike Encode, which erases the
// kind and relies on the schema's column type to decode). AttrSets
// serialize as the sorted position list, the canonical form independent
// of the word-slice layout (a pooled set and a freshly built one marshal
// identically even when their backing capacities differ).

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"
)

// MarshalJSON renders the value as native JSON: null, a string, or an
// integer number. It is AppendJSON(nil).
func (v Value) MarshalJSON() ([]byte, error) {
	return v.AppendJSON(nil), nil
}

// AppendJSON appends the value's JSON form to b: null, an integer, or a
// string escaped exactly as encoding/json escapes one (FuzzValueJSON) —
// HTML-safe, U+2028/U+2029 escaped, invalid UTF-8 as U+FFFD — so
// hand-written encoders embed values with no re-encoding pass.
func (v Value) AppendJSON(b []byte) []byte {
	switch v.kind {
	case KindInt:
		return strconv.AppendInt(b, v.num, 10)
	case KindString:
		return appendJSONString(b, v.str)
	default:
		return append(b, "null"...)
	}
}

// appendJSONString appends s as a JSON string, byte for byte what
// json.Marshal(s) writes.
func appendJSONString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				// Other control bytes, and <, > and & for HTML safety.
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(append(b, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hex[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(b, s[start:]...), '"')
}

// UnmarshalJSON parses the native JSON mapping of MarshalJSON. Numbers
// must be base-10 integers (floats and exponents are rejected: no Value
// kind can hold them losslessly).
func (v *Value) UnmarshalJSON(b []byte) error {
	s := strings.TrimSpace(string(b))
	switch {
	case s == "null":
		*v = Null
		return nil
	case len(s) > 0 && s[0] == '"':
		var str string
		if err := json.Unmarshal(b, &str); err != nil {
			return fmt.Errorf("relation: unmarshal value: %w", err)
		}
		*v = String(str)
		return nil
	default:
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return fmt.Errorf("relation: unmarshal value %q: want null, string or base-10 integer: %w", s, err)
		}
		*v = Int(n)
		return nil
	}
}

// MarshalJSON renders the set as its ascending position list.
func (s AttrSet) MarshalJSON() ([]byte, error) {
	return json.Marshal(s.Positions())
}

// UnmarshalJSON parses a position list (order and duplicates are
// irrelevant; a position outside [0, MaxArity) is rejected). The previous
// content of the set is replaced.
func (s *AttrSet) UnmarshalJSON(b []byte) error {
	var ps []int
	if err := json.Unmarshal(b, &ps); err != nil {
		return fmt.Errorf("relation: unmarshal attrset: %w", err)
	}
	*s = AttrSet{}
	for _, p := range ps {
		if p < 0 || p >= MaxArity {
			return fmt.Errorf("relation: unmarshal attrset: position %d outside [0, %d)", p, MaxArity)
		}
		s.Add(p)
	}
	return nil
}
