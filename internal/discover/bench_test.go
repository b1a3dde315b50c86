package discover_test

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/datagen"
	"repro/internal/discover"
	"repro/internal/relation"
)

// Benchmarks compare the naive row-scan miner (the PR 0 engine, kept as
// the oracle) against the postings engine over the same HOSP masters.
// The postings timings are honest end-to-end costs: they include
// interning the bare relation into the miner's columns, not just the
// lattice walk. Run with Workers=1 and GOMAXPROCS pinned to 1, so the
// speedup is the algorithmic one (the parallel lattice speedup is not
// gated).

var benchRels = map[int]*relation.Relation{}

func benchRel(b *testing.B, size int) *relation.Relation {
	b.Helper()
	prev := runtime.GOMAXPROCS(1)
	b.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	if rel, ok := benchRels[size]; ok {
		return rel
	}
	ds, err := datagen.Hosp(datagen.Config{Seed: 2, MasterSize: size, Tuples: 1})
	if err != nil {
		b.Fatal(err)
	}
	rel := ds.Master.Relation()
	benchRels[size] = rel
	return rel
}

var benchSink []discover.Candidate

func BenchmarkDiscoverNaive(b *testing.B) {
	for _, size := range []int{600, 6000, 60000} {
		b.Run(fmt.Sprintf("dm=%d", size), func(b *testing.B) {
			rel := benchRel(b, size)
			opts := discover.Options{MaxLHS: 2, MinSupport: 8}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink = discover.Dependencies(rel, opts)
			}
		})
	}
}

func BenchmarkDiscoverPostings(b *testing.B) {
	for _, size := range []int{600, 6000, 60000} {
		b.Run(fmt.Sprintf("dm=%d", size), func(b *testing.B) {
			rel := benchRel(b, size)
			opts := discover.Options{MaxLHS: 2, MinSupport: 8, Workers: 1}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink = discover.Mine(rel, opts)
			}
		})
	}
}

func BenchmarkDiscoverWeighted(b *testing.B) {
	b.Run("dm=6000", func(b *testing.B) {
		rel := benchRel(b, 6000)
		opts := discover.Options{MaxLHS: 2, MinSupport: 8, MinConfidence: 0.9, Workers: 1}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchSink = discover.Mine(rel, opts)
		}
	})
}
