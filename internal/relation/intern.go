package relation

// This file implements the allocation-free probe substrate: a value-interning
// symbol table assigning every distinct Value a dense uint32 id, and a Hasher
// that folds a tuple projection into a single uint64 FNV-1a key over the
// (kind, id) pairs. The master-data indexes key their buckets on these
// hashes, so the per-probe cost demanded by the paper's TransFix complexity
// analysis (§5.1, "constant time ... by using a hash table") is one hash
// computation plus one map lookup — no string building, no heap allocation.
//
// The string encoding Tuple.Key remains the canonical, collision-free
// encoding for debugging, CSV round-trips and state enumeration; the uint64
// key is a hash, so index buckets must verify candidates against the stored
// tuples (see internal/master).

import (
	"fmt"

	"repro/internal/persist"
)

// Symbols interns values into dense uint32 ids. Ids are assigned in
// first-seen order starting at 0. Interning is not safe for concurrent use;
// populate the table while building indexes, then only read (ID, Hasher
// probes) from any number of goroutines.
//
// A table is layered to support copy-on-write snapshots (the versioned
// master data of internal/master): Fork derives a writable child in O(1)
// that shares all of the parent's content, so the child can intern new
// values while readers of the parent race nothing. Ids stay dense across
// the layers and a value's id never changes between a parent and its
// descendants, which is what keeps hash keys computed against an old
// snapshot valid in every later one.
type Symbols struct {
	// base is a root table's Go map: Intern writes it until the first Fork,
	// after which it is frozen and shared by every descendant.
	base map[Value]uint32
	// flat is the frozen bottom layer built by SymbolsFromValues (nil for
	// map-only tables): ids [0, len(flat.vals)) resolve through an
	// open-addressing probe instead of a Go map. It is immutable and shared
	// by every fork, so a table imported from a columnar arena never pays
	// map construction over the frozen symbols.
	flat *symbolsFlat
	// over holds what was interned since the first Fork: a path-copying
	// trie keyed by the value's HashValue hash, so a fork shares it whole
	// and an Intern costs one trie path. The trie is used as an
	// open-addressing table in KEY space: a value lives at the first key at
	// or after its hash that no other value took (64-bit collisions are a
	// theoretical case, but lookups verify the stored value and walk on).
	over   persist.Map[symbol]
	forked bool // Intern goes to over, not base
}

type symbol struct {
	val Value
	id  uint32
}

// symbolsFlat is the frozen layer: id-ordered values plus an open-addressing
// slot table (frozenEmpty marks a free slot) keyed by the process-stable
// HashValue hash, at most half full so probes terminate at an empty slot.
type symbolsFlat struct {
	vals  []Value
	slots []uint32
	mask  uint32
}

// frozenEmpty is the empty-slot sentinel; symbol ids stay below it because
// a table of 1<<32 values could not have been built.
const frozenEmpty = ^uint32(0)

// lookup resolves v, whose HashValue hash is h.
func (f *symbolsFlat) lookup(h uint64, v Value) (uint32, bool) {
	for j := uint32(h) & f.mask; ; j = (j + 1) & f.mask {
		id := f.slots[j]
		if id == frozenEmpty {
			return 0, false
		}
		if f.vals[id] == v {
			return id, true
		}
	}
}

func (f *symbolsFlat) len() int {
	if f == nil {
		return 0
	}
	return len(f.vals)
}

// NewSymbols creates an empty symbol table.
func NewSymbols() *Symbols {
	return &Symbols{base: make(map[Value]uint32)}
}

// Fork returns a writable child table sharing this table's content. After
// forking, the parent must not Intern again (its content may now be read
// concurrently through children); reads remain safe on both. Fork is O(1):
// no layer is copied, whatever the table holds.
func (s *Symbols) Fork() *Symbols {
	return &Symbols{base: s.base, flat: s.flat, over: s.over, forked: true}
}

// lookup resolves v across the layers (the layers are disjoint).
func (s *Symbols) lookup(v Value) (uint32, bool) {
	if len(s.base) > 0 {
		if id, ok := s.base[v]; ok {
			return id, true
		}
	}
	if s.flat == nil && s.over.Len() == 0 {
		return 0, false
	}
	h := HashValue(fnvOffset64, v)
	if s.flat != nil {
		if id, ok := s.flat.lookup(h, v); ok {
			return id, true
		}
	}
	if s.over.Len() > 0 {
		for ; ; h++ {
			e, ok := s.over.Get(h)
			if !ok {
				break
			}
			if e.val == v {
				return e.id, true
			}
		}
	}
	return 0, false
}

// Intern returns v's id, assigning the next dense id on first sight.
func (s *Symbols) Intern(v Value) uint32 {
	if id, ok := s.lookup(v); ok {
		return id
	}
	id := uint32(s.Len())
	if !s.forked {
		s.base[v] = id
		return id
	}
	h := HashValue(fnvOffset64, v)
	for _, taken := s.over.Get(h); taken; _, taken = s.over.Get(h) {
		h++
	}
	s.over = s.over.Set(h, symbol{v, id})
	return id
}

// ID returns v's id; ok is false when v was never interned. Read-only and
// allocation-free: safe for concurrent use once interning is finished.
func (s *Symbols) ID(v Value) (uint32, bool) {
	return s.lookup(v)
}

// Len returns the number of distinct interned values.
func (s *Symbols) Len() int { return len(s.base) + s.over.Len() + s.flat.len() }

// Export returns the interned values in id order (vals[id] is the value
// whose Intern returned id). This is the serialization side of the stable-
// id contract: a table rebuilt with SymbolsFromValues over the exported
// slice assigns every value its original id, so hash keys computed against
// the original table stay valid against the import — what the columnar
// master arena (internal/master) relies on to freeze index buckets keyed
// on interned-id hashes.
func (s *Symbols) Export() []Value {
	vals := make([]Value, s.Len())
	if s.flat != nil {
		copy(vals, s.flat.vals)
	}
	for v, id := range s.base {
		vals[id] = v
	}
	for _, e := range s.over.All() {
		vals[e.id] = e.val
	}
	return vals
}

// SymbolsFromValues builds a table interning vals in order, so vals[i]
// gets id i — the import side of Export. Duplicate values are an error:
// they would silently remap ids and invalidate every hash computed against
// the exported table.
//
// The table is built as a frozen flat layer, not a Go map: inserting a few
// hundred thousand string-bearing struct keys into a map dominated arena
// cold start, while filling an open-addressing uint32 slot array is a
// fraction of that. The slice is retained; callers must not mutate it.
func SymbolsFromValues(vals []Value) (*Symbols, error) {
	nslots := 2
	for nslots < 2*len(vals) {
		nslots <<= 1
	}
	slots := make([]uint32, nslots)
	for i := range slots {
		slots[i] = frozenEmpty
	}
	mask := uint32(nslots - 1)
	for i, v := range vals {
		h := uint32(HashValue(fnvOffset64, v))
		for j := h & mask; ; j = (j + 1) & mask {
			id := slots[j]
			if id == frozenEmpty {
				slots[j] = uint32(i)
				break
			}
			if vals[id] == v {
				return nil, fmt.Errorf("relation: symbol import: value %v duplicated at ids %d and %d", v, id, i)
			}
		}
	}
	return &Symbols{
		base: make(map[Value]uint32),
		flat: &symbolsFlat{vals: vals, slots: slots, mask: mask},
	}, nil
}

// FNV-1a constants (64-bit).
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

// Hasher computes uint64 projection keys against a symbol table. The zero
// Hasher is not usable; obtain one with NewHasher. Hasher is a small value
// type — copy it freely.
type Hasher struct {
	syms *Symbols
}

// NewHasher returns a hasher over the symbol table.
func NewHasher(syms *Symbols) Hasher { return Hasher{syms: syms} }

// Symbols returns the underlying symbol table.
func (h Hasher) Symbols() *Symbols { return h.syms }

// hashCell folds one value's (kind, id) pair into the accumulator,
// byte-by-byte in FNV-1a order.
func hashCell(acc uint64, kind Kind, id uint32) uint64 {
	acc ^= uint64(kind)
	acc *= fnvPrime64
	acc ^= uint64(id & 0xff)
	acc *= fnvPrime64
	acc ^= uint64((id >> 8) & 0xff)
	acc *= fnvPrime64
	acc ^= uint64((id >> 16) & 0xff)
	acc *= fnvPrime64
	acc ^= uint64(id >> 24)
	acc *= fnvPrime64
	return acc
}

// HashTuple hashes t's projection on positions without interning. ok is
// false when some projected value was never interned — such a projection
// cannot equal any indexed projection, so callers treat it as a guaranteed
// miss. Allocation-free.
func (h Hasher) HashTuple(t Tuple, positions []int) (uint64, bool) {
	acc := fnvOffset64
	for _, p := range positions {
		v := t[p]
		id, ok := h.syms.lookup(v)
		if !ok {
			return 0, false
		}
		acc = hashCell(acc, v.kind, id)
	}
	return acc, true
}

// HashValues hashes the value vector in order (the probe-side twin of
// HashTuple for callers that already projected). Allocation-free.
func (h Hasher) HashValues(values []Value) (uint64, bool) {
	acc := fnvOffset64
	for _, v := range values {
		id, ok := h.syms.lookup(v)
		if !ok {
			return 0, false
		}
		acc = hashCell(acc, v.kind, id)
	}
	return acc, true
}

// HashInterning hashes t's projection on positions, interning unseen values
// along the way — the index-build-side variant. Not safe for concurrent use.
func (h Hasher) HashInterning(t Tuple, positions []int) uint64 {
	acc := fnvOffset64
	for _, p := range positions {
		v := t[p]
		acc = hashCell(acc, v.kind, h.syms.Intern(v))
	}
	return acc
}

// HashSeed returns the FNV-1a starting accumulator for the standalone
// folding helpers below. They serve hash-keyed memo tables that — like the
// master indexes — verify candidates against stored state, since a uint64
// key is a hash, not an injective encoding.
func HashSeed() uint64 { return fnvOffset64 }

// HashInt folds an integer into the accumulator byte by byte.
func HashInt(acc uint64, n int) uint64 {
	u := uint64(n)
	for i := 0; i < 8; i++ {
		acc ^= u & 0xff
		acc *= fnvPrime64
		u >>= 8
	}
	return acc
}

// HashValue folds a value into the accumulator: its kind, then its payload
// (numeric bytes for ints, the raw bytes for strings). Unlike the
// interning Hasher it needs no symbol table, so it works on arbitrary
// values — e.g. the Explore oracle's visited-state memo.
func HashValue(acc uint64, v Value) uint64 {
	acc ^= uint64(v.kind)
	acc *= fnvPrime64
	switch v.kind {
	case KindInt:
		return HashInt(acc, int(v.num))
	case KindString:
		for i := 0; i < len(v.str); i++ {
			acc ^= uint64(v.str[i])
			acc *= fnvPrime64
		}
	}
	return acc
}
