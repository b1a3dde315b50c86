// Package relation provides the relational substrate used throughout the
// repository: typed scalar values, schemas, tuples and in-memory relations,
// together with CSV import/export.
//
// The paper ("Towards Certain Fixes with Editing Rules and Master Data",
// Fan et al., VLDB 2010) defines editing rules over a pair of relation
// schemas (R, Rm). This package implements those schemas and their
// instances; every higher layer (patterns, rules, regions, the CertainFix
// framework) builds on it.
package relation

import (
	"fmt"
	"strconv"
	"strings"
)

// Kind identifies the dynamic type of a Value.
type Kind uint8

// The supported value kinds. Null represents a missing attribute value
// (e.g. the empty str/zip cells of tuple t2 in Fig. 1a of the paper).
const (
	KindNull Kind = iota
	KindString
	KindInt
)

// String returns a human-readable name for the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindString:
		return "string"
	case KindInt:
		return "int"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Value is an immutable typed scalar. The zero Value is Null. Value is a
// comparable struct so it can be used directly as a map key, which the
// master-data indexes rely on.
type Value struct {
	kind Kind
	str  string
	num  int64
}

// Null is the missing value.
var Null = Value{}

// String constructs a string value.
func String(s string) Value { return Value{kind: KindString, str: s} }

// Int constructs an integer value.
func Int(i int64) Value { return Value{kind: KindInt, num: i} }

// Kind reports the value's dynamic type.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether v is the missing value.
func (v Value) IsNull() bool { return v.kind == KindNull }

// Str returns the string payload. It is only meaningful for KindString.
func (v Value) Str() string { return v.str }

// Int64 returns the integer payload. It is only meaningful for KindInt.
func (v Value) Int64() int64 { return v.num }

// Clone returns v with a string payload of its own, for a holder that
// outlives the buffer v's string may alias: a cell CSVChunk.Decode yields
// is a slice of its chunk's block, which the next CSVReader.Next into that
// chunk overwrites (Symbols.InternClone copies only the cells it keeps).
func (v Value) Clone() Value {
	v.str = strings.Clone(v.str)
	return v
}

// Equal reports whether two values are identical (same kind and payload).
// Null equals only Null.
func (v Value) Equal(w Value) bool { return v == w }

// Less defines a total order over values: Null < String < Int, integers by
// numeric order, strings lexicographically. The order is used for
// deterministic iteration (sorted tableaus, canonical state encodings).
func (v Value) Less(w Value) bool {
	if v.kind != w.kind {
		return v.kind < w.kind
	}
	switch v.kind {
	case KindInt:
		return v.num < w.num
	case KindString:
		return v.str < w.str
	default:
		return false
	}
}

// String renders the value for display. Null renders as "⊥".
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "⊥"
	case KindInt:
		return strconv.FormatInt(v.num, 10)
	default:
		return v.str
	}
}

// Encode renders the value in a form that round-trips through Decode and is
// unambiguous across kinds (used for CSV I/O and canonical state keys).
func (v Value) Encode() string {
	switch v.kind {
	case KindNull:
		return ""
	case KindInt:
		return strconv.FormatInt(v.num, 10)
	default:
		return v.str
	}
}

// DecodeValue parses an encoded cell into a value of the requested type.
// Empty cells decode to Null. Integer cells must parse in base 10.
func DecodeValue(cell string, t Type) (Value, error) {
	if cell == "" {
		return Null, nil
	}
	switch t {
	case TypeInt:
		n, err := strconv.ParseInt(cell, 10, 64)
		if err != nil {
			return Null, fmt.Errorf("relation: decode %q as int: %w", cell, err)
		}
		return Int(n), nil
	case TypeString:
		return String(cell), nil
	default:
		return Null, fmt.Errorf("relation: decode: unknown type %v", t)
	}
}
