package master

import "repro/internal/persist"

// layered is the copy-on-write map shared by the hash indexes (uint64
// projection hash → tuple ids) and the posting lists (interned value id →
// tuple ids). It has two layers, both immutable values:
//
//	over   — this snapshot's delta overlay, a path-copying trie (a key
//	         present here shadows the table below, including with an empty
//	         slice);
//	frozen — the canonical table (table.go), shared by every snapshot
//	         derived since it was built, compacted or loaded.
//
// ApplyDelta forks every shard's pair by copying the struct: a set then
// costs the trie path to its key, whatever the overlay holds. Once the
// overlay has outgrown the table enough (fork), both compact into one table.
type layered[K uint32 | uint64, ID int | int32] struct {
	over   persist.Map[[]ID]
	frozen table[ID]
}

// get resolves k's id slice through the layers.
func (l *layered[K, ID]) get(k K) []ID {
	if l.over.Len() > 0 {
		if v, ok := l.over.Get(uint64(k)); ok {
			return v
		}
	}
	return l.frozen.get(uint64(k))
}

// set shadows k's slice in this snapshot's overlay. The slice must be
// freshly allocated (slices are shared across snapshots).
func (l *layered[K, ID]) set(k K, v []ID) {
	l.over = l.over.Set(uint64(k), v)
}

// fork derives the next snapshot's view: both layers shared — or compacted
// into one table once the overlay has grown past a quarter of the table's
// keys plus 1/64 of its ids: a rebuild copies every id, so the overlay
// growth that pays for it scales with them (few keys, long lists: never).
func (l *layered[K, ID]) fork() layered[K, ID] {
	if n := l.over.Len(); n*4 > l.frozen.nkeys+len(l.frozen.ids)/16+16 {
		return layered[K, ID]{frozen: l.compact()}
	}
	return *l
}

// compact returns the canonical table of the merged view: the table as it
// stands under an empty overlay, a rebuilt one otherwise.
func (l *layered[K, ID]) compact() table[ID] {
	if l.over.Len() == 0 {
		return l.frozen
	}
	n := len(l.frozen.ids) // with the overlay's ids, an upper bound on the merged view
	for _, v := range l.over.All() {
		n += len(v)
	}
	keys, ids := make([]uint64, 0, n), make([]ID, 0, n)
	l.each(func(k K, v []ID) {
		for _, id := range v {
			keys, ids = append(keys, uint64(k)), append(ids, id)
		}
	})
	return buildTable(keys, ids)
}

// mergedSize counts the keys and ids compact's table would hold without
// building it: O(overlay), one table probe per overlay key.
func (l *layered[K, ID]) mergedSize() (nkeys, nids int) {
	nkeys, nids = l.frozen.nkeys, len(l.frozen.ids)
	for k, v := range l.over.All() {
		if old := l.frozen.get(k); len(old) > 0 {
			nkeys, nids = nkeys-1, nids-len(old)
		}
		if len(v) > 0 {
			nkeys, nids = nkeys+1, nids+len(v)
		}
	}
	return nkeys, nids
}

// size returns the total number of ids across all live keys.
func (l *layered[K, ID]) size() int {
	n := 0
	l.each(func(_ K, v []ID) { n += len(v) })
	return n
}

// each calls fn for every live (key, ids) pair resolved through the
// layers, skipping tombstones. Order is unspecified.
func (l *layered[K, ID]) each(fn func(k K, ids []ID)) {
	l.frozen.each(func(k uint64, v []ID) {
		if _, shadowed := l.over.Get(k); !shadowed {
			fn(K(k), v)
		}
	})
	for k, v := range l.over.All() {
		if len(v) > 0 {
			fn(K(k), v)
		}
	}
}

// The slice helpers always allocate: the slices are shared across
// snapshots, so in-place mutation would corrupt siblings.

// removeID returns s without id.
func removeID[ID int | int32](s []ID, id ID) []ID {
	out := make([]ID, 0, len(s)-1)
	for _, x := range s {
		if x != id {
			out = append(out, x)
		}
	}
	return out
}

// renameID returns s with `from` re-inserted as `to` at its ascending
// position (the swap-remove move; `to` must not already be present).
func renameID[ID int | int32](s []ID, from, to ID) []ID {
	out := make([]ID, 0, len(s))
	inserted := false
	for _, x := range s {
		if x == from {
			continue
		}
		if !inserted && x > to {
			out = append(out, to)
			inserted = true
		}
		out = append(out, x)
	}
	if !inserted {
		out = append(out, to)
	}
	return out
}

// appendID returns s with id appended (id must exceed every element, so
// ascending order is preserved).
func appendID[ID int | int32](s []ID, id ID) []ID {
	out := make([]ID, len(s)+1)
	copy(out, s)
	out[len(s)] = id
	return out
}
