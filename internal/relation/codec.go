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
)

// MarshalJSON renders the value as native JSON: null, a string, or an
// integer number.
func (v Value) MarshalJSON() ([]byte, error) {
	switch v.kind {
	case KindNull:
		return []byte("null"), nil
	case KindInt:
		return strconv.AppendInt(nil, v.num, 10), nil
	case KindString:
		return json.Marshal(v.str)
	default:
		return nil, fmt.Errorf("relation: marshal: unknown value kind %v", v.kind)
	}
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
// irrelevant; negative positions are rejected). The previous content of
// the set is replaced.
func (s *AttrSet) UnmarshalJSON(b []byte) error {
	var ps []int
	if err := json.Unmarshal(b, &ps); err != nil {
		return fmt.Errorf("relation: unmarshal attrset: %w", err)
	}
	*s = AttrSet{}
	for _, p := range ps {
		if p < 0 {
			return fmt.Errorf("relation: unmarshal attrset: negative position %d", p)
		}
		s.Add(p)
	}
	return nil
}
