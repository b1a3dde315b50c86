package master

import "io"

// The fixtures of the in-package benchmarks, for the external test package:
// only that one can import datagen (datagen imports master).
var (
	BenchMasterRelation = benchMasterRelation
	BenchMasterTuple    = benchMasterTuple
	PinProcs            = pinProcs
)

// ReadCSVBlocks is Builder.ReadCSV reading rd in blocks of the given size:
// a small one cuts chunks anywhere, inside quoted cells included.
func ReadCSVBlocks(b *Builder, rd io.Reader, block int) error { return b.readCSV(rd, block) }
