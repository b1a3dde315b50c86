package master

import "io"

// The fixtures of the in-package benchmarks and the arena's derivation
// check, for the external test package: only that one can import datagen
// (datagen imports master).
var (
	BenchMasterRelation = benchMasterRelation
	BenchMasterTuple    = benchMasterTuple
	PinProcs            = pinProcs
	CheckLoadDerives    = checkLoadDerives
)

// ReadCSVBlocks is Builder.ReadCSV reading rd in blocks of the given size:
// a small one cuts chunks anywhere, inside quoted cells included.
func ReadCSVBlocks(b *Builder, rd io.Reader, block int) error { return b.readCSV(rd, block) }

// size returns the total number of ids across all shards.
func (idx index) size() int {
	n := 0
	for s := range idx.shards {
		n += idx.shards[s].size()
	}
	return n
}

// indexes returns the snapshot's view of every index, in plan order.
func (d *Data) indexes() []index {
	out := make([]index, len(d.plan.indexes))
	for i := range out {
		out[i] = d.indexAt(i)
	}
	return out
}
