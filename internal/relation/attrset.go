package relation

import (
	"math/bits"
	"sort"
	"strconv"
	"strings"
)

// AttrSet is a set of attribute positions, implemented as a bitset over
// schema positions. Schemas in this system are small (≤ 64 attributes is
// typical; the paper's widest schema has 19), but the implementation
// supports arbitrary arity via a word slice.
type AttrSet struct {
	words []uint64
}

// NewAttrSet builds a set from positions.
func NewAttrSet(positions ...int) AttrSet {
	var s AttrSet
	for _, p := range positions {
		s.Add(p)
	}
	return s
}

// AttrSetFromWords builds the set whose bitset words are exactly words
// (bit p&63 of words[p>>6] is position p), taking ownership of the slice.
// With Words it is the binary codecs' way in and out: a set rebuilt from
// its own words is identical down to the slice length, which
// reflect.DeepEqual on results carrying sets depends on.
func AttrSetFromWords(words []uint64) AttrSet { return AttrSet{words: words} }

// Words returns the set's bitset words, not a copy: read-only.
func (s AttrSet) Words() []uint64 { return s.words }

// Add inserts position p.
func (s *AttrSet) Add(p int) {
	w := p >> 6
	for len(s.words) <= w {
		s.words = append(s.words, 0)
	}
	s.words[w] |= 1 << (uint(p) & 63)
}

// AddAll inserts every position in ps.
func (s *AttrSet) AddAll(ps []int) {
	for _, p := range ps {
		s.Add(p)
	}
}

// Remove deletes position p if present.
func (s *AttrSet) Remove(p int) {
	w := p >> 6
	if w < len(s.words) {
		s.words[w] &^= 1 << (uint(p) & 63)
	}
}

// Has reports membership of p.
func (s AttrSet) Has(p int) bool {
	w := p >> 6
	return w < len(s.words) && s.words[w]&(1<<(uint(p)&63)) != 0
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
func (s AttrSet) Len() int {
	n := 0
	for _, w := range s.words {
		for ; w != 0; w &= w - 1 {
			n++
		}
	}
	return n
}

// Clone returns an independent copy.
func (s AttrSet) Clone() AttrSet {
	return AttrSet{words: append([]uint64(nil), s.words...)}
}

// Union returns s ∪ o without mutating either.
func (s AttrSet) Union(o AttrSet) AttrSet {
	longer, shorter := s.words, o.words
	if len(shorter) > len(longer) {
		longer, shorter = shorter, longer
	}
	out := append([]uint64(nil), longer...)
	for i, w := range shorter {
		out[i] |= w
	}
	return AttrSet{words: out}
}

// Equal reports set equality.
func (s AttrSet) Equal(o AttrSet) bool {
	a, b := s.words, o.words
	if len(a) < len(b) {
		a, b = b, a
	}
	for i := range b {
		if a[i] != b[i] {
			return false
		}
	}
	for i := len(b); i < len(a); i++ {
		if a[i] != 0 {
			return false
		}
	}
	return true
}

// ContainsSet reports o ⊆ s.
func (s AttrSet) ContainsSet(o AttrSet) bool {
	for i, w := range o.words {
		if w == 0 {
			continue
		}
		if i >= len(s.words) || s.words[i]&w != w {
			return false
		}
	}
	return true
}

// Range calls f on every member in ascending order, stopping early when f
// returns false. Allocation-free — the hot-path alternative to Positions.
func (s AttrSet) Range(f func(p int) bool) {
	for wi, w := range s.words {
		base := wi << 6
		for ; w != 0; w &= w - 1 {
			if !f(base + trailingZeros(w)) {
				return
			}
		}
	}
}

// Positions returns the members in ascending order.
func (s AttrSet) Positions() []int {
	out := make([]int, 0, s.Len())
	for wi, w := range s.words {
		base := wi << 6
		for ; w != 0; w &= w - 1 {
			out = append(out, base+trailingZeros(w))
		}
	}
	return out
}

// Key returns a canonical string for use as a map key.
func (s AttrSet) Key() string {
	ps := s.Positions()
	var b strings.Builder
	for i, p := range ps {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(p))
	}
	return b.String()
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

func trailingZeros(w uint64) int { return bits.TrailingZeros64(w) }
