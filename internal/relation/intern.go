package relation

// This file implements the allocation-free probe substrate: a value-interning
// symbol table assigning every distinct Value a dense uint32 id, whose probe
// methods (ProbeTuple, HashRow) fold a tuple projection into a single uint64
// FNV-1a key over the (kind, id) pairs. The master-data indexes key their
// buckets on these hashes, so the per-probe cost demanded by the paper's TransFix complexity
// analysis (§5.1, "constant time ... by using a hash table") is one hash
// computation plus one map lookup — no string building, no heap allocation.
// The master (internal/master) also STORES its tuples as rows of these ids,
// so the table resolves both ways: ID for a probe's values, Value for a
// stored cell.
//
// The string encoding Tuple.Key remains the canonical, collision-free
// encoding for debugging, CSV round-trips and state enumeration; the uint64
// key is a hash, so index buckets must verify candidates against the stored
// rows (see internal/master).

import (
	"fmt"
	"unsafe"

	"repro/internal/persist"
)

// Symbols interns values into dense uint32 ids. Ids are assigned in
// first-seen order starting at 0. Interning is not safe for concurrent use;
// populate the table while building indexes, then only read (ID, Value,
// the probe methods) from any number of goroutines.
//
// A table is layered to support copy-on-write snapshots (the versioned
// master data of internal/master): Fork derives a writable child that shares
// all of the parent's content, so the child can intern new values while
// readers of the parent race nothing. Ids stay dense across the layers and a
// value's id never changes between a parent and its descendants, which is
// what keeps hash keys computed against an old snapshot — and the id rows it
// stores — valid in every later one.
type Symbols struct {
	// flat is the root layer: ids [0, len(flat.vals)) resolve through an
	// open-addressing probe. A root table's Intern writes it until the first
	// Fork, after which it is frozen and shared by every descendant.
	flat *symbolsFlat
	// over and overVals hold what was interned since the first Fork, one
	// direction each. over is a path-copying trie from the value's HashValue
	// hash to its id, used as an open-addressing table in KEY space: a value
	// lives at the first key at or after its hash that no other value took
	// (64-bit collisions are a theoretical case, but lookups verify the
	// value behind the stored id and walk on). overVals is the chunked
	// vector of those values, indexed by id − len(flat.vals). A fork shares
	// both: O(1) for the trie, a chunk table for the vector.
	over     persist.Map[uint32]
	overVals persist.Vec[Value]
	// batch is this fork's own: the trie nodes its Interns make are updated
	// in place by its later ones, and by nobody else's. Nil on a root.
	batch    *persist.Edit
	strBytes int64 // Σ len(string payloads), kept at Intern
}

// symbolsFlat is the root layer: id-ordered values plus an open-addressing
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

// newSymbolsFlat returns an empty layer with room for n values.
func newSymbolsFlat(n int) *symbolsFlat {
	f := &symbolsFlat{}
	f.resize(n)
	return f
}

// resize rebuilds the slot table at the smallest power of two keeping n
// values at most half full, re-placing the values already held.
func (f *symbolsFlat) resize(n int) {
	nslots := 2
	for nslots < 2*n {
		nslots <<= 1
	}
	f.slots = make([]uint32, nslots)
	for i := range f.slots {
		f.slots[i] = frozenEmpty
	}
	f.mask = uint32(nslots - 1)
	for id, v := range f.vals {
		f.place(HashValue(fnvOffset64, v), uint32(id))
	}
}

// place stores id in the first free slot of the probe sequence of hash h.
func (f *symbolsFlat) place(h uint64, id uint32) {
	j := uint32(h) & f.mask
	for f.slots[j] != frozenEmpty {
		j = (j + 1) & f.mask
	}
	f.slots[j] = id
}

// add appends v, whose HashValue hash is h and which the layer does not
// hold, and returns its id.
func (f *symbolsFlat) add(h uint64, v Value) uint32 {
	if 2*(len(f.vals)+1) > len(f.slots) {
		f.resize(2 * (len(f.vals) + 1))
	}
	id := uint32(len(f.vals))
	f.vals = append(f.vals, v)
	f.place(h, id)
	return id
}

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

// NewSymbols creates an empty symbol table.
func NewSymbols() *Symbols {
	return &Symbols{flat: newSymbolsFlat(0)}
}

// Fork returns a writable child table sharing this table's content. After
// forking, the parent must not Intern again (its content may now be read
// concurrently through children); reads remain safe on both. Fork copies no
// value: beyond the struct it costs the chunk table of overVals, 8 bytes per
// 64 values interned since the root was frozen.
func (s *Symbols) Fork() *Symbols {
	return &Symbols{flat: s.flat, over: s.over, overVals: s.overVals.Clone(), batch: new(persist.Edit), strBytes: s.strBytes}
}

// lookup resolves v, whose HashValue hash is h, across the layers (the
// layers are disjoint).
func (s *Symbols) lookup(h uint64, v Value) (uint32, bool) {
	if id, ok := s.flat.lookup(h, v); ok {
		return id, true
	}
	if s.over.Len() > 0 {
		for ; ; h++ {
			id, ok := s.over.Get(h)
			if !ok {
				break
			}
			if s.Value(id) == v {
				return id, true
			}
		}
	}
	return 0, false
}

// Intern returns v's id, assigning the next dense id on first sight. The
// table retains v: a caller whose strings alias a larger buffer clones them
// first (Value.Clone), or calls InternClone.
func (s *Symbols) Intern(v Value) uint32 {
	h := HashValue(fnvOffset64, v)
	if id, ok := s.lookup(h, v); ok {
		return id
	}
	return s.add(h, v)
}

// InternClone is Intern for a value whose string aliases a buffer the
// caller reuses: one probe, and a copy of the string only when the value
// enters the table.
func (s *Symbols) InternClone(v Value) uint32 {
	h := HashValue(fnvOffset64, v)
	if id, ok := s.lookup(h, v); ok {
		return id
	}
	return s.add(h, v.Clone())
}

// Reset empties a table that was never forked, keeping the room it grew,
// for the next batch of values to be interned from id 0.
func (s *Symbols) Reset() {
	f := s.flat
	clear(f.vals)
	f.vals = f.vals[:0]
	for i := range f.slots {
		f.slots[i] = frozenEmpty
	}
	s.strBytes = 0
}

// add assigns v, whose HashValue hash is h and which the table does not
// hold, the next id.
func (s *Symbols) add(h uint64, v Value) uint32 {
	s.strBytes += int64(len(v.str))
	if s.batch == nil {
		return s.flat.add(h, v)
	}
	id := uint32(s.Len())
	for _, taken := s.over.Get(h); taken; _, taken = s.over.Get(h) {
		h++
	}
	s.over = s.over.SetIn(s.batch, h, id)
	s.overVals.Append(v)
	return id
}

// ID returns v's id; ok is false when v was never interned. Read-only and
// allocation-free: safe for concurrent use once interning is finished.
func (s *Symbols) ID(v Value) (uint32, bool) {
	return s.lookup(HashValue(fnvOffset64, v), v)
}

// Value returns the value interned as id, which must be below Len. O(1) on
// every layer, read-only and allocation-free.
func (s *Symbols) Value(id uint32) Value {
	if n := uint32(len(s.flat.vals)); id >= n {
		return s.overVals.At(int(id - n))
	}
	return s.flat.vals[id]
}

// Len returns the number of distinct interned values.
func (s *Symbols) Len() int { return len(s.flat.vals) + s.overVals.Len() }

// Bytes returns what the table holds: the interned string payloads (a
// counter kept at Intern), a Value per symbol and the root layer's slots. The
// trie over the values interned since the first Fork is not in it.
func (s *Symbols) Bytes() int64 {
	return s.strBytes + int64(s.Len())*int64(unsafe.Sizeof(Value{})) + 4*int64(len(s.flat.slots))
}

// Export returns the interned values in id order (vals[id] is the value
// whose Intern returned id), freshly allocated. This is the serialization
// side of the stable-id contract: a table rebuilt with SymbolsFromValues
// over the exported slice assigns every value its original id, so hash keys
// and id rows computed against the original table stay valid against the
// import — what the master arena (internal/master) relies on.
func (s *Symbols) Export() []Value {
	vals := make([]Value, s.Len())
	n := copy(vals, s.flat.vals)
	for i, v := range s.overVals.All() {
		vals[n+i] = v
	}
	return vals
}

// SymbolsFromValues builds a table interning vals in order, so vals[i]
// gets id i — the import side of Export. Duplicate values are an error:
// they would silently remap ids and invalidate every hash computed against
// the exported table. The slice is retained as the table's root layer;
// callers must not mutate it.
func SymbolsFromValues(vals []Value) (*Symbols, error) {
	s := &Symbols{flat: newSymbolsFlat(len(vals))}
	f := s.flat
	f.vals = vals[:len(vals):len(vals)] // a later Intern appends to a copy
	for i, v := range vals {
		// One walk of the probe sequence both rules a duplicate out and finds
		// the free slot.
		j := uint32(HashValue(fnvOffset64, v)) & f.mask
		for ; f.slots[j] != frozenEmpty; j = (j + 1) & f.mask {
			if id := f.slots[j]; vals[id] == v {
				return nil, fmt.Errorf("relation: symbol import: value %v duplicated at ids %d and %d", v, id, i)
			}
		}
		f.slots[j] = uint32(i)
		s.strBytes += int64(len(v.str))
	}
	return s, nil
}

// FNV-1a constants (64-bit).
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

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

// ProbeTuple hashes t's projection on positions without interning. ok is
// false when some projected value was never interned — such a projection
// cannot equal any stored projection, so callers treat it as a guaranteed
// miss. ids[i], when ids is non-nil, receives the id of t[positions[i]]: a
// probe verifies bucket candidates by comparing those ids with the stored
// rows' cells, so no value is compared twice. Allocation-free.
func (s *Symbols) ProbeTuple(t Tuple, positions []int, ids []uint32) (uint64, bool) {
	acc := fnvOffset64
	for i, p := range positions {
		v := t[p]
		id, ok := s.ID(v)
		if !ok {
			return 0, false
		}
		if ids != nil {
			ids[i] = id
		}
		acc = hashCell(acc, v.kind, id)
	}
	return acc, true
}

// HashRow hashes the projection on positions of a stored row — cells that
// are already ids of this table — to the key ProbeTuple gives the tuple the
// row stands for. Allocation-free; no value is looked up, only its kind.
func (s *Symbols) HashRow(row []uint32, positions []int) uint64 {
	acc := fnvOffset64
	for _, p := range positions {
		acc = hashCell(acc, s.Value(row[p]).kind, row[p])
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
// probe methods it needs no symbol table, so it works on arbitrary
// values — e.g. a memo of visited fixing states.
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
