package relation

import (
	"fmt"
	"strings"
)

// Type is the declared type of an attribute.
type Type uint8

// Attribute types. TypeString covers free text and codes; TypeInt covers
// numeric attributes (scores, years, truth values in the reduction tests).
const (
	TypeString Type = iota
	TypeInt
)

// String returns a human-readable name for the type.
func (t Type) String() string {
	switch t {
	case TypeString:
		return "string"
	case TypeInt:
		return "int"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// Attribute is a named, typed column of a schema.
type Attribute struct {
	Name string
	Type Type
}

// Schema is an ordered list of distinct attributes with a relation name.
// Attribute positions are stable; all higher layers refer to attributes by
// position for O(1) access and use the schema to resolve names.
type Schema struct {
	name  string
	attrs []Attribute
	byPos map[string]int
}

// NewSchema builds a schema of at most MaxArity attributes. Attribute
// names must be non-empty and pairwise distinct.
func NewSchema(name string, attrs ...Attribute) (*Schema, error) {
	if name == "" {
		return nil, fmt.Errorf("relation: schema name must be non-empty")
	}
	if len(attrs) > MaxArity {
		return nil, fmt.Errorf("relation: schema %s has %d attributes, at most %d are supported", name, len(attrs), MaxArity)
	}
	s := &Schema{name: name, attrs: append([]Attribute(nil), attrs...), byPos: make(map[string]int, len(attrs))}
	for i, a := range s.attrs {
		if a.Name == "" {
			return nil, fmt.Errorf("relation: schema %s: attribute %d has empty name", name, i)
		}
		if _, dup := s.byPos[a.Name]; dup {
			return nil, fmt.Errorf("relation: schema %s: duplicate attribute %q", name, a.Name)
		}
		s.byPos[a.Name] = i
	}
	return s, nil
}

// MustSchema is NewSchema that panics on error; intended for package-level
// fixtures and tests where the schema is a literal.
func MustSchema(name string, attrs ...Attribute) *Schema {
	s, err := NewSchema(name, attrs...)
	if err != nil {
		panic(err)
	}
	return s
}

// StringSchema builds a schema whose attributes are all strings; a common
// case for the paper's HOSP/DBLP schemas. Like MustSchema it panics on a
// schema NewSchema refuses, one of more than MaxArity attributes included.
func StringSchema(name string, attrNames ...string) *Schema {
	return MustSchema(name, StringAttrs(attrNames...)...)
}

// StringAttrs returns string-typed attributes with the given names, for
// NewSchema.
func StringAttrs(names ...string) []Attribute {
	attrs := make([]Attribute, len(names))
	for i, n := range names {
		attrs[i] = Attribute{Name: n, Type: TypeString}
	}
	return attrs
}

// Name returns the relation name.
func (s *Schema) Name() string { return s.name }

// Arity returns the number of attributes.
func (s *Schema) Arity() int { return len(s.attrs) }

// Attr returns the attribute at position i.
func (s *Schema) Attr(i int) Attribute { return s.attrs[i] }

// Pos resolves an attribute name to its position, with ok=false when the
// attribute does not exist.
func (s *Schema) Pos(name string) (int, bool) {
	i, ok := s.byPos[name]
	return i, ok
}

// MustPos resolves an attribute name, panicking if absent. For fixtures.
func (s *Schema) MustPos(name string) int {
	i, ok := s.byPos[name]
	if !ok {
		panic(fmt.Sprintf("relation: schema %s has no attribute %q", s.name, name))
	}
	return i
}

// PosList resolves a list of attribute names to positions.
func (s *Schema) PosList(names ...string) ([]int, error) {
	out := make([]int, len(names))
	for i, n := range names {
		p, ok := s.byPos[n]
		if !ok {
			return nil, fmt.Errorf("relation: schema %s has no attribute %q", s.name, n)
		}
		out[i] = p
	}
	return out, nil
}

// MustPosList is PosList that panics on unknown names.
func (s *Schema) MustPosList(names ...string) []int {
	ps, err := s.PosList(names...)
	if err != nil {
		panic(err)
	}
	return ps
}

// AttrNames returns the attribute names in schema order.
func (s *Schema) AttrNames() []string {
	out := make([]string, len(s.attrs))
	for i, a := range s.attrs {
		out[i] = a.Name
	}
	return out
}

// String renders the schema as R(A,B,...).
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteString(s.name)
	b.WriteByte('(')
	for i, a := range s.attrs {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(a.Name)
	}
	b.WriteByte(')')
	return b.String()
}

// Equal reports whether two schemas have the same name and attribute list.
func (s *Schema) Equal(o *Schema) bool {
	if s == o {
		return true
	}
	if s == nil || o == nil || s.name != o.name || len(s.attrs) != len(o.attrs) {
		return false
	}
	for i := range s.attrs {
		if s.attrs[i] != o.attrs[i] {
			return false
		}
	}
	return true
}
