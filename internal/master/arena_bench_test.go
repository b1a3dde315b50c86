package master

// Cold-start benchmarks: process boot as a NewForRules build of the frozen
// tables versus loading the saved arena image, at |Dm| = 100k (plus a
// 10k point for trend), and the probe loop over both — the same tables,
// built in memory (BenchmarkProbeHeap) or viewed over the mapping
// (BenchmarkProbeArena). Every benchmark pins GOMAXPROCS and the shard
// count: the boots run at 1 — their allocation counts then do not depend on
// scheduling, which is what lets benchgate hold them (TestBootHeapBudget
// bounds the parallel boot) — and the probes at 1 and, as P4 twins, at 4.

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/relation"
	"repro/internal/rule"
)

// pinProcs sets GOMAXPROCS to p for the rest of the test or benchmark: the
// worker count of every parallel build and delta in it. A benchmark calls
// it in the function that holds the measured loop — the testing package
// resets GOMAXPROCS to the -cpu value on entering each sub-benchmark.
func pinProcs(tb testing.TB, p int) {
	prev := runtime.GOMAXPROCS(p)
	tb.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// BenchmarkColdStartRebuild is the boot path without a snapshot: a full
// NewForRules over the row-oriented relation.
func BenchmarkColdStartRebuild(b *testing.B) {
	const p = 1
	for _, n := range []int{10_000, 100_000} {
		rel, sigma := benchMasterRelation(n)
		b.Run(fmt.Sprintf("Dm=%d", n), func(b *testing.B) {
			pinProcs(b, p)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := NewForRules(rel, sigma, WithShards(p)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkColdStartArena is the boot path with one: open the saved
// image, map it, validate, and materialize the snapshot. File pages are
// warm (saved in the same process), which matches a service restarting on
// the machine that holds its snapshot.
func BenchmarkColdStartArena(b *testing.B) {
	const p = 1
	pinProcs(b, p)
	for _, n := range []int{10_000, 100_000} {
		rel, sigma := benchMasterRelation(n)
		d, err := NewForRules(rel, sigma, WithShards(p))
		if err != nil {
			b.Fatal(err)
		}
		path := filepath.Join(b.TempDir(), "master.arena")
		if err := d.SaveArenaFile(path, sigma); err != nil {
			b.Fatal(err)
		}
		fi, err := os.Stat(path)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("Dm=%d", n), func(b *testing.B) {
			pinProcs(b, p)
			b.SetBytes(fi.Size())
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				// A boot starts with empty pools. Two collections, off the
				// clock, empty every sync.Pool and its victim cache, so each
				// load refills fmt's (the rule-signature check) and allocs/op
				// repeats to the unit; without them it moved by ±3 with how
				// many cycles happened to land inside a load.
				b.StopTimer()
				runtime.GC()
				runtime.GC()
				b.StartTimer()
				if _, err := LoadArena(path, sigma); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchProbe is the shared single-snapshot probe body: indexed MatchIDs
// plus the fully-validated CompatibleExists path against real zip
// projections — the same shape as BenchmarkProbeUnderUpdate minus the
// delta churn, so heap and arena are compared on identical work.
func benchProbe(b *testing.B, d *Data, rel *relation.Relation, arity, n int, ru *rule.Rule) {
	probes := make([]relation.Tuple, 256)
	for i := range probes {
		t := make(relation.Tuple, arity)
		for j := range t {
			t[j] = relation.String("x")
		}
		t[7] = rel.Tuple(i * (n / len(probes)))[7] // a real zip: indexed hit
		probes[i] = t
	}
	zSet := relation.NewAttrSet(7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := probes[i%len(probes)]
		if len(d.MatchIDs(ru, t)) == 0 {
			b.Fatal("probe missed: bench fixture broken")
		}
		_ = d.CompatibleExists(ru, t, zSet)
	}
}

// BenchmarkProbeHeap measures the probe loop against a snapshot built in
// memory.
func BenchmarkProbeHeap(b *testing.B)   { benchProbeLayout(b, 1, false) }
func BenchmarkProbeHeapP4(b *testing.B) { benchProbeLayout(b, 4, false) }

// BenchmarkProbeArena measures the identical loop against the same master
// loaded from its arena image: tables and values over the mapping.
func BenchmarkProbeArena(b *testing.B)   { benchProbeLayout(b, 1, true) }
func BenchmarkProbeArenaP4(b *testing.B) { benchProbeLayout(b, 4, true) }

func benchProbeLayout(b *testing.B, p int, arena bool) {
	pinProcs(b, p)
	const n = 60_000
	rel, sigma := benchMasterRelation(n)
	d := MustNewForRules(rel, sigma, WithShards(p))
	if arena {
		path := filepath.Join(b.TempDir(), "master.arena")
		if err := d.SaveArenaFile(path, sigma); err != nil {
			b.Fatal(err)
		}
		var err error
		if d, err = LoadArena(path, sigma); err != nil {
			b.Fatal(err)
		}
	}
	benchProbe(b, d, rel, sigma.Schema().Arity(), n, sigma.Rules()[0])
}
