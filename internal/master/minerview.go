package master

// Miner-facing accessors over the master's id rows.
//
// Rule discovery (internal/discover) counts dependency support by
// refining tuple partitions column by column, which needs each column as
// a dense per-tuple array of value ids — what the rows hold, transposed.
// ColumnIDs reads a column out in that form without turning a cell back
// into a value: value comparison during mining is uint32 comparison.

import "repro/internal/relation"

// ColumnIDs copies column col out as a dense per-tuple array of interned
// value ids: out[id] is the value id of tuple id's cell, for every tuple
// id in [0, Len()). Two cells hold equal values iff their ids are equal.
// Id NUMBERING depends on interning order, so callers must not treat ids
// as stable across independently built snapshots — only equality within
// one snapshot's lineage is meaningful.
func (d *Data) ColumnIDs(col int) []uint32 {
	out := make([]uint32, d.rows.Len())
	for i, row := range d.rows.All() {
		out[i] = row[col]
	}
	return out
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
