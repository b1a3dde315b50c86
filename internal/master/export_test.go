package master

// The fixtures of the in-package benchmarks, for the external test package:
// only that one can import datagen (datagen imports master).
var (
	BenchMasterRelation = benchMasterRelation
	BenchMasterTuple    = benchMasterTuple
	PinProcs            = pinProcs
)
