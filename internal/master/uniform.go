package master

// This file implements the uniform-bucket invariant behind the O(1) value
// probe (AppendRHSValues).
//
// It covers only the indexes a value probe reads — those over some rule's
// whole Xm. A one-column index that only the partial-lhs test of compat.go
// reads tracks no rhs column and keeps no table: that test verifies every
// candidate's cells.
//
// A bucket is UNIFORM when all its tuples share the Xm projection (no
// 64-bit hash collision inside it) and agree on every tracked rhs column —
// the Bm of each rule whose whole Xm the index is (indexPlan.bms).
// The paper assumes Dm is consistent (§2): every rule is a function on the
// master, so every bucket of a clean master is uniform and its smallest id,
// bucket[0], answers for all of it. The buckets that break the contract are
// listed, per index shard, in an exception table: empty on a consistent
// master, which is why it is a table of exceptions and not a value per
// (key, column).
//
// The table is a pure function of the shard's buckets and rows, derived
// bucket by bucket by bucketMask. A build derives it with rebuildExceptions
// after filling each shard; LoadArena (arenas do not store it) derives it in
// the walk that validates the image's table, reading rows from the image's
// cells in place; a shard whose buckets are all singletons derives nothing.
// ApplyDelta maintains it copy-on-write: an added tuple is compared with its
// bucket's smallest id, a delete from a listed bucket rescans that bucket, a
// swap-remove rename changes no bucket's tuple set. The property suites pin
// incremental == rebuilt at every epoch, and the arena tests loaded ==
// rebuilt.

import (
	"cmp"
	"slices"
)

// collided is the mask of a bucket holding more than one Xm projection:
// every probe of it scans.
const collided = ^uint64(0)

// exception lists one non-uniform bucket: bit i of mask is set when the
// bucket's tuples disagree on rhs column indexPlan.bms[i] (columns past 63
// share the last bit — coarser, never wrong).
type exception struct{ h, mask uint64 }

// exceptions is one index shard's table, sorted by key hash. Values are
// immutable — snapshots share them — so updates copy.
type exceptions []exception

func (e exceptions) find(h uint64) (int, bool) {
	return slices.BinarySearchFunc(e, h, func(x exception, h uint64) int { return cmp.Compare(x.h, h) })
}

// mask returns h's exception mask, 0 for a uniform bucket.
func (e exceptions) mask(h uint64) uint64 {
	if len(e) == 0 {
		return 0
	}
	if i, ok := e.find(h); ok {
		return e[i].mask
	}
	return 0
}

// with returns the table with h's mask set (0 unlists the bucket).
func (e exceptions) with(h, mask uint64) exceptions {
	i, ok := e.find(h)
	if !ok && mask == 0 || ok && e[i].mask == mask {
		return e
	}
	out := make(exceptions, 0, len(e)+1)
	out = append(out, e[:i]...)
	if mask != 0 {
		out = append(out, exception{h, mask})
	}
	if ok {
		i++
	}
	return append(out, e[i:]...)
}

// disagree returns the exception bits two rows of one bucket raise: cells
// are interned ids, so two cells differ exactly when their ids do.
func (ip *indexPlan) disagree(a, b []uint32) uint64 {
	for _, c := range ip.xm {
		if a[c] != b[c] {
			return collided
		}
	}
	var m uint64
	for i, c := range ip.bms {
		if a[c] != b[c] {
			m |= 1 << min(i, 63)
		}
	}
	return m
}

// bucketMask computes a bucket's exception mask from scratch, reading each
// tuple's cells from rows. limit is a known superset of the answer —
// collided when nothing is known — and ends the scan as soon as it is
// reached. A bucket of one tuple is uniform, and no row is read for it.
func (ip *indexPlan) bucketMask(bucket idList, rows *rowVec, limit uint64) uint64 {
	chunks := bucket.chunks()
	if len(chunks) == 1 && len(chunks[0]) < 2 {
		return 0
	}
	var m uint64
	var first []uint32 // the row of the bucket's smallest id
	for _, chunk := range chunks {
		for _, id := range chunk {
			if first == nil {
				first = rows.At(id)
			} else if m |= ip.disagree(first, rows.At(id)); m == limit {
				return m
			}
		}
	}
	return m
}

// rebuildExceptions derives shard s's exception table from its buckets; an
// index that tracks no rhs column keeps none, and a shard holding only
// single-tuple buckets derives none.
func (idx index) rebuildExceptions(s int, rows *rowVec) {
	if len(idx.bms) == 0 {
		return
	}
	sh := &idx.shards[s]
	if sh.over.Len() == 0 && sh.frozen.nkeys == len(sh.frozen.ids) {
		sh.exc = nil
		return
	}
	var exc exceptions
	sh.lists(func(h uint64, bucket idList) {
		if m := idx.bucketMask(bucket, rows, collided); m != 0 {
			exc = append(exc, exception{h, m})
		}
	})
	sh.exc = exc.sorted()
}

// sorted returns a freshly derived table in key order.
func (e exceptions) sorted() exceptions {
	slices.SortFunc(e, func(a, b exception) int { return cmp.Compare(a.h, b.h) })
	return e
}
