package master

// layered is the copy-on-write map shared by the hash indexes (uint64
// projection hash → tuple ids) and the posting lists (interned value id →
// tuple ids). It has two layers:
//
//	over   — this snapshot's delta overlay (a key present here shadows the
//	         table below, including with an empty slice);
//	frozen — the immutable canonical table (table.go), shared by every
//	         snapshot derived since it was built, compacted or loaded.
//
// ApplyDelta forks every shard's pair: table shared, overlay copied, until
// the overlay has outgrown the table enough (fork) to compact both into one.
type layered[K uint32 | uint64, ID int | int32] struct {
	over   map[K][]ID
	frozen table[ID]
}

// get resolves k's id slice through the layers.
func (l *layered[K, ID]) get(k K) []ID {
	if l.over != nil {
		if v, ok := l.over[k]; ok {
			return v
		}
	}
	return l.frozen.get(uint64(k))
}

// set shadows k's slice in this snapshot's overlay. The slice must be
// freshly allocated (slices are shared across snapshots).
func (l *layered[K, ID]) set(k K, v []ID) {
	if l.over == nil {
		l.over = make(map[K][]ID)
	}
	l.over[k] = v
}

// fork derives the next snapshot's view: table shared, overlay copied — or
// both compacted once the overlay has grown past a quarter of the table's
// keys plus 1/64 of its ids: a rebuild copies every id, so the overlay
// growth that pays for it scales with them (few keys, long lists: never).
func (l *layered[K, ID]) fork() layered[K, ID] {
	if len(l.over) == 0 || len(l.over)*4 > l.frozen.nkeys+len(l.frozen.ids)/16+16 {
		return layered[K, ID]{frozen: l.compact()}
	}
	over := make(map[K][]ID, len(l.over)+4)
	for k, v := range l.over {
		over[k] = v
	}
	return layered[K, ID]{over: over, frozen: l.frozen}
}

// compact returns the canonical table of the merged view: the table as it
// stands under an empty overlay, a rebuilt one otherwise.
func (l *layered[K, ID]) compact() table[ID] {
	if len(l.over) == 0 {
		return l.frozen
	}
	n := len(l.frozen.ids) // with the overlay's ids, an upper bound on the merged view
	for _, v := range l.over {
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
		if _, shadowed := l.over[K(k)]; !shadowed {
			fn(K(k), v)
		}
	})
	for k, v := range l.over {
		if len(v) > 0 {
			fn(k, v)
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
