package relation

import (
	"fmt"
	"math/bits"
	"sort"
)

// MaxArity is the widest schema the system accepts: an AttrSet is one
// machine word, bit p for position p. The paper's widest schema has 19
// attributes. NewSchema refuses a wider one, and every decoder of outside
// input range-checks positions against it before they reach Add.
const MaxArity = 64

// AttrSet is a set of attribute positions in [0, MaxArity): a value of one
// word, so assigning it copies it and no method allocates.
type AttrSet struct {
	w uint64
}

// NewAttrSet builds a set from positions.
func NewAttrSet(positions ...int) AttrSet {
	var s AttrSet
	s.AddAll(positions)
	return s
}

// Add inserts position p. A position outside [0, MaxArity) panics: every
// path from outside input range-checks first, so only a bug gets here.
func (s *AttrSet) Add(p int) {
	if uint(p) >= MaxArity {
		panic(fmt.Sprintf("relation: attribute position %d outside [0, %d)", p, MaxArity))
	}
	s.w |= 1 << uint(p)
}

// AddAll inserts every position in ps.
func (s *AttrSet) AddAll(ps []int) {
	for _, p := range ps {
		s.Add(p)
	}
}

// Remove deletes position p if present.
func (s *AttrSet) Remove(p int) {
	if uint(p) < MaxArity {
		s.w &^= 1 << uint(p)
	}
}

// Has reports membership of p; a position outside [0, MaxArity) is never a
// member.
func (s AttrSet) Has(p int) bool {
	return uint(p) < MaxArity && s.w&(1<<uint(p)) != 0
}

// HasAll reports whether every position in ps is in the set.
func (s AttrSet) HasAll(ps []int) bool {
	for _, p := range ps {
		if !s.Has(p) {
			return false
		}
	}
	return true
}

// Len counts the members.
func (s AttrSet) Len() int { return bits.OnesCount64(s.w) }

// Clone returns s. A set is a value and assignment copies it; Clone stays
// only because the benchmark harness (bench/layers.go) still calls it.
func (s AttrSet) Clone() AttrSet { return s }

// Union returns s ∪ o.
func (s AttrSet) Union(o AttrSet) AttrSet { return AttrSet{s.w | o.w} }

// Equal reports set equality.
func (s AttrSet) Equal(o AttrSet) bool { return s == o }

// ContainsSet reports o ⊆ s.
func (s AttrSet) ContainsSet(o AttrSet) bool { return o.w&^s.w == 0 }

// Range calls f on every member in ascending order, stopping early when f
// returns false. Allocation-free — the hot-path alternative to Positions.
func (s AttrSet) Range(f func(p int) bool) {
	for w := s.w; w != 0; w &= w - 1 {
		if !f(bits.TrailingZeros64(w)) {
			return
		}
	}
}

// Positions returns the members in ascending order.
func (s AttrSet) Positions() []int {
	out := make([]int, 0, s.Len())
	for w := s.w; w != 0; w &= w - 1 {
		out = append(out, bits.TrailingZeros64(w))
	}
	return out
}

// Names renders the set as sorted attribute names under the schema.
func (s AttrSet) Names(schema *Schema) []string {
	ps := s.Positions()
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = schema.Attr(p).Name
	}
	sort.Strings(out)
	return out
}
