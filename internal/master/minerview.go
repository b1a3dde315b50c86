package master

// Miner-facing accessors over the inverted-postings layer.
//
// Rule discovery (internal/discover) counts dependency support by
// refining tuple partitions column by column, which needs each column as
// a dense per-tuple array of value ids. The postings layer already holds
// exactly that information, inverted: per column, value id → ascending
// tuple-id list, partitioned by value id across the snapshot's shards. The two
// accessors here let the miner build missing posting lists at
// construction time (IndexPostings, the posting analogue of Index) and
// read a column back in dense id form (ColumnIDs) without touching the
// relation's Value cells again — value comparison during mining becomes
// uint32 comparison, and the decode is O(n) regardless of shard count.

import "repro/internal/relation"

// IndexPostings builds (or reuses) the inverted posting lists for each
// given Rm column. Like Index, this is construction-time API: it interns
// values and grows the postings registry, so it must not run concurrently
// with lookups or on a snapshot that already has derived children. Lists
// built here are maintained incrementally by ApplyDelta like any other
// registered postings.
func (d *Data) IndexPostings(cols ...int) {
	var created []*postings
	var added []int
	for _, col := range cols {
		if ps, isNew := d.registerPostings(col); isNew {
			created, added = append(created, ps), append(added, col)
		}
	}
	if len(created) > 0 {
		d.fillAdded(nil, created, added)
	}
}

// ColumnIDs decodes column col into a dense per-tuple array of interned
// value ids: out[id] is the value id of tuple id's cell, for every tuple
// id in [0, Len()). Two cells hold equal values iff their ids are equal.
// The decode inverts the column's posting lists (ok=false when the column
// has none — call IndexPostings first); the result is identical for every
// shard count, but id NUMBERING depends on interning order, so callers
// must not treat ids as stable across snapshots — only equality within
// one snapshot is meaningful.
func (d *Data) ColumnIDs(col int) ([]uint32, bool) {
	ps := d.findPostings(col)
	if ps == nil {
		return nil, false
	}
	out := make([]uint32, d.rel.Len())
	for s := range ps.shards {
		ps.shards[s].each(func(vid uint32, ids []int32) {
			for _, id := range ids {
				out[id] = vid
			}
		})
	}
	return out, true
}

// SymbolCount returns the number of distinct interned values; every id
// returned by ColumnIDs is < SymbolCount(). Miners size their id-indexed
// scratch tables with this.
func (d *Data) SymbolCount() int { return d.syms.Len() }

// SymbolValues returns the interned values in id order (vals[id] is the
// value behind id), the reverse mapping of ColumnIDs. Allocates a fresh
// slice per call; meant for construction-time consumers like the repair
// step of the discovery loop, not probe paths.
func (d *Data) SymbolValues() []relation.Value { return d.syms.Export() }
