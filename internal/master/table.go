package master

// This file implements the frozen table: the one immutable index layout,
// an open-addressing hash table from a uint64 key — the hash of a tuple's
// projection on the index's Xm — to a span of tuple ids, the key's bucket.
// A Builder's Finish builds one per shard of every index (fill, shard.go),
// compaction rewrites table + overlay into a new one (overlay.go), SaveArena
// writes the slot and id arrays as they stand and LoadArena views them in
// place over the mapping (arena.go, arena_load.go).
//
// The layout is CANONICAL — a pure function of the content: a power-of-two
// slot count at ≤ 1/2 load (so every lookup ends at an empty slot), keys
// inserted in ascending order with linear probing, bucket spans in that
// same key order, ids ascending within a bucket. Equal content means equal
// bytes, whatever builds, deltas, compactions, saves and loads produced it.

import (
	"math/bits"
	"slices"
	"unsafe"
)

// table is one frozen shard table. A slot is two words: the key, then the
// bucket's span packed as off<<32 | count into ids. count == 0 marks an
// empty slot — empty buckets are never stored.
type table struct {
	slots []uint64 // len = 2·nslots
	mask  uint64   // nslots − 1
	ids   []int
	nkeys int
}

// get resolves k's ids; nil when absent.
func (t *table) get(k uint64) []int {
	slot := k & t.mask
	for {
		packed := t.slots[2*slot+1]
		if packed == 0 {
			return nil
		}
		if t.slots[2*slot] == k {
			off := packed >> 32
			return t.ids[off : off+packed&0xffffffff]
		}
		slot = (slot + 1) & t.mask
	}
}

// each calls fn for every stored (key, ids) pair, in slot order.
func (t *table) each(fn func(k uint64, ids []int)) {
	for slot := 0; 2*slot < len(t.slots); slot++ {
		if packed := t.slots[2*slot+1]; packed != 0 {
			off := packed >> 32
			fn(t.slots[2*slot], t.ids[off:off+packed&0xffffffff])
		}
	}
}

// tableSlots returns the slot count for nkeys entries: the smallest power
// of two holding them at ≤ 1/2 load (minimum 2, so the probe loop always
// has an empty slot to terminate on).
func tableSlots(nkeys int) int {
	if nkeys == 0 {
		return 2
	}
	return 1 << bits.Len(uint(2*nkeys-1))
}

// newTable returns an empty table with the slots nkeys keys take and room for
// nids ids.
func newTable(nkeys, nids int) table {
	nslots := tableSlots(nkeys)
	return table{slots: make([]uint64, 2*nslots), mask: uint64(nslots - 1), ids: make([]int, 0, nids), nkeys: nkeys}
}

// place gives k, which the table does not hold, its slot and the span
// ids[off:off+n]. The layout is canonical when keys are placed in ascending
// order and their spans follow each other in that order.
func (t *table) place(k uint64, off, n int) {
	slot := k & t.mask
	for t.slots[2*slot+1] != 0 {
		slot = (slot + 1) & t.mask
	}
	t.slots[2*slot], t.slots[2*slot+1] = k, uint64(off)<<32|uint64(n)
}

// buildTableSorting builds the canonical table holding ids[i] under keys[i].
// The pairs may come in any order as long as each key's ids arrive ascending.
// No intermediate map: the sorted keys give the distinct keys and their
// counts, which fix every span before the ids are scattered into place. The
// keys are sorted in the caller's buffer, which has their length and is
// overwritten. With a scratch kc, keys of few distinct values — a state
// column, a measure code — are counted there and only the distinct ones
// sorted, each then written count times; keys of more distinct values than
// kc holds are sorted whole, which costs about as much.
func buildTableSorting(keys []uint64, ids []int, sorted []uint64, kc *keyCounts) table {
	if d := kc.count(keys, sorted); d >= 0 {
		slices.Sort(sorted[:d])
		// Back to front: the run of the i-th distinct key starts at or after i.
		at := len(sorted)
		for i := d - 1; i >= 0; i-- {
			k := sorted[i]
			for range kc.of(k) {
				at--
				sorted[at] = k
			}
		}
	} else {
		copy(sorted, keys)
		slices.Sort(sorted)
	}
	nkeys := 0
	for i, k := range sorted {
		if i == 0 || k != sorted[i-1] {
			nkeys++
		}
	}
	t := newTable(nkeys, len(ids))
	t.ids = t.ids[:len(ids)]
	for lo := 0; lo < len(sorted); {
		hi := lo + 1
		for hi < len(sorted) && sorted[hi] == sorted[lo] {
			hi++
		}
		t.place(sorted[lo], lo, hi-lo)
		lo = hi
	}
	// Scatter: a slot's off field is the write cursor of its bucket, wound
	// back to the bucket's start once every id is in place.
	for i, k := range keys {
		slot := k & t.mask
		for t.slots[2*slot] != k {
			slot = (slot + 1) & t.mask
		}
		t.ids[t.slots[2*slot+1]>>32] = ids[i]
		t.slots[2*slot+1] += 1 << 32
	}
	for slot := 0; 2*slot < len(t.slots); slot++ {
		t.slots[2*slot+1] -= t.slots[2*slot+1] << 32
	}
	return t
}

// keyCounts is a build worker's scratch for counting a shard's keys: an
// open-addressing table of at most half its slots' keys, a zero count
// marking an empty slot. It is allocated once per worker, for a quarter of
// a shard's expected keys: counting pays while a shard's keys are mostly
// repeats, and past a quarter distinct, sorting them whole costs about as
// much.
type keyCounts struct {
	keys   []uint64
	counts []uint32
}

// maxCountedKeys bounds a keyCounts, and with it the scratch's bytes
// (12 per slot), whatever |Dm| and the shard count are.
const maxCountedKeys = 1 << 15

// newKeyCounts returns a scratch counting up to keys distinct keys, keys
// clamped to [16, maxCountedKeys].
func newKeyCounts(keys int) *keyCounts {
	n := tableSlots(min(max(keys, 16), maxCountedKeys))
	return &keyCounts{keys: make([]uint64, n), counts: make([]uint32, n)}
}

// count counts keys and appends the distinct ones to distinct[:0], in slot
// order, returning how many there are; -1 when kc is nil, or when they are
// more than half its slots or, past the first thousand keys, more than a
// quarter of the keys seen.
func (kc *keyCounts) count(keys, distinct []uint64) int {
	if kc == nil {
		return -1
	}
	clear(kc.counts)
	mask, limit, d := uint64(len(kc.counts)-1), len(kc.counts)/2, 0
	for i, k := range keys {
		slot := k & mask
		for kc.counts[slot] != 0 && kc.keys[slot] != k {
			slot = (slot + 1) & mask
		}
		if kc.counts[slot] == 0 {
			if d == limit || i >= 1024 && 4*d > i {
				return -1
			}
			kc.keys[slot] = k
			d++
		}
		kc.counts[slot]++
	}
	d = 0
	for slot, c := range kc.counts {
		if c != 0 {
			distinct[d] = kc.keys[slot]
			d++
		}
	}
	return d
}

// of returns how many times the last count saw k, which it saw.
func (kc *keyCounts) of(k uint64) int {
	mask := uint64(len(kc.counts) - 1)
	slot := k & mask
	for kc.keys[slot] != k || kc.counts[slot] == 0 {
		slot = (slot + 1) & mask
	}
	return int(kc.counts[slot])
}

// idWidth is an id's width in an arena image: 8 bytes on every platform.
const idWidth = 8

// The view helpers reinterpret arena bytes as typed slices without
// copying. Callers guarantee alignment (sections are 8-aligned and the
// loader realigns unaligned backing buffers up front) and length
// divisibility (validated during decode).

func viewU64(b []byte) []uint64 {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), len(b)/8)
}

func viewU32(b []byte) []uint32 {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), len(b)/4)
}

// viewIDs reinterprets stored ids as []int. Only on a 32-bit platform are
// ids narrower in memory than in the image; there they are copied (ids were
// validated < ntuples, which fits).
func viewIDs(b []byte) []int {
	if len(b) == 0 {
		return nil
	}
	if unsafe.Sizeof(int(0)) == idWidth {
		return unsafe.Slice((*int)(unsafe.Pointer(&b[0])), len(b)/idWidth)
	}
	u := viewU64(b)
	out := make([]int, len(u))
	for i, v := range u {
		out[i] = int(v)
	}
	return out
}
