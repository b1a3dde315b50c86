package rule

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/pattern"
	"repro/internal/relation"
)

// Set is a set Σ of editing rules over a shared (R, Rm) schema pair.
//
// A set is immutable once parsed or built: Add belongs to construction,
// and the slice Rules returns, like the rules' own position slices, is
// shared and must not be modified.
type Set struct {
	r, rm *relation.Schema
	rules []*Rule
}

// NewSet builds a rule set, checking every rule shares the schema pair.
func NewSet(r, rm *relation.Schema, rules ...*Rule) (*Set, error) {
	s := &Set{r: r, rm: rm}
	if len(rules) > 0 {
		s.rules = make([]*Rule, 0, len(rules))
	}
	for _, ru := range rules {
		if err := s.Add(ru); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// MustNewSet is NewSet that panics on error.
func MustNewSet(r, rm *relation.Schema, rules ...*Rule) *Set {
	s, err := NewSet(r, rm, rules...)
	if err != nil {
		panic(err)
	}
	return s
}

// Add appends a rule after checking schema compatibility.
func (s *Set) Add(ru *Rule) error {
	if !ru.Schema().Equal(s.r) || !ru.MasterSchema().Equal(s.rm) {
		return fmt.Errorf("rule %s: schema mismatch with set over (%s, %s)", ru.Name(), s.r.Name(), s.rm.Name())
	}
	s.rules = append(s.rules, ru)
	return nil
}

// Schema returns the input schema R.
func (s *Set) Schema() *relation.Schema { return s.r }

// MasterSchema returns the master schema Rm.
func (s *Set) MasterSchema() *relation.Schema { return s.rm }

// Len returns the number of rules.
func (s *Set) Len() int { return len(s.rules) }

// Rule returns the i-th rule.
func (s *Set) Rule(i int) *Rule { return s.rules[i] }

// Rules returns the set's own rule slice, shared and read-only.
func (s *Set) Rules() []*Rule { return s.rules }

// LHS returns lhs(Σ) = ∪ lhs(ϕ) as an attribute set over R.
func (s *Set) LHS() relation.AttrSet {
	var out relation.AttrSet
	for _, ru := range s.rules {
		out.AddAll(ru.x)
	}
	return out
}

// RHS returns rhs(Σ) = ∪ {rhs(ϕ)} as an attribute set over R.
func (s *Set) RHS() relation.AttrSet {
	var out relation.AttrSet
	for _, ru := range s.rules {
		out.Add(ru.b)
	}
	return out
}

// PatternAttrs returns ∪ lhsp(ϕ) over R.
func (s *Set) PatternAttrs() relation.AttrSet {
	var out relation.AttrSet
	for _, ru := range s.rules {
		out = out.Union(ru.xpSet)
	}
	return out
}

// Attrs returns all R attributes mentioned anywhere in Σ (X ∪ Xp ∪ B).
func (s *Set) Attrs() relation.AttrSet {
	out := s.LHS().Union(s.PatternAttrs())
	for _, ru := range s.rules {
		out.Add(ru.b)
	}
	return out
}

// FreeAttrs returns the R attributes not fixable by any rule (R \ rhs(Σ)).
// These must always be user-validated for a certain fix to exist — like
// `item` in Examples 8–9 of the paper.
func (s *Set) FreeAttrs() relation.AttrSet {
	rhs := s.RHS()
	var out relation.AttrSet
	for p := 0; p < s.r.Arity(); p++ {
		if !rhs.Has(p) {
			out.Add(p)
		}
	}
	return out
}

// Normalize returns a set with every rule in normal form.
func (s *Set) Normalize() *Set {
	out := &Set{r: s.r, rm: s.rm, rules: make([]*Rule, len(s.rules))}
	for i, ru := range s.rules {
		out.rules[i] = ru.Normalize()
	}
	return out
}

// IsDirect reports whether every rule satisfies the direct-fix restriction.
func (s *Set) IsDirect() bool {
	for _, ru := range s.rules {
		if !ru.IsDirect() {
			return false
		}
	}
	return true
}

// ActiveDomain collects, per R attribute position, the set of constants
// appearing in Σ's patterns. Together with master-data values this forms
// the active domain used by the instantiation-based checkers (§4 proofs).
func (s *Set) ActiveDomain() map[int][]relation.Value {
	seen := map[int]map[relation.Value]bool{}
	for _, ru := range s.rules {
		tp := ru.tp
		for i := 0; i < tp.Len(); i++ {
			pos, cell := tp.CellAt(i)
			if cell.Kind == pattern.Wildcard { // contributes no constant
				continue
			}
			if seen[pos] == nil {
				seen[pos] = map[relation.Value]bool{}
			}
			seen[pos][cell.Val] = true
		}
	}
	out := make(map[int][]relation.Value, len(seen))
	for pos, vs := range seen {
		for v := range vs {
			out[pos] = append(out[pos], v)
		}
		sortValues(out[pos])
	}
	return out
}

// String renders the rule set one rule per line.
func (s *Set) String() string {
	var b strings.Builder
	for i, ru := range s.rules {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(ru.String())
	}
	return b.String()
}

func sortValues(vs []relation.Value) {
	sort.Slice(vs, func(i, j int) bool { return vs[i].Less(vs[j]) })
}
