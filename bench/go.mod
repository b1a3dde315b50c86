// The benchmark is a module of its own so that it builds from its own
// build file; its path sits under the repository's module path, which is
// what lets it import repro/internal/... through the replace below.
module repro/bench

go 1.24

require repro v0.0.0

replace repro => ../
