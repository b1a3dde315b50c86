package master

// Cold-start benchmarks: process boot as a NewForRules build of the frozen
// tables versus loading the saved arena image (BenchmarkColdStartArena, in
// the external test package so that it can boot a HOSP image too), at
// |Dm| = 100k (plus a 10k point for trend), and the probe loop over both — the same tables,
// built in memory (BenchmarkProbeHeap) or viewed over the mapping
// (BenchmarkProbeArena). Every benchmark pins GOMAXPROCS and the shard
// count: the boots run at 1 — their allocation counts then do not depend on
// scheduling, which is what lets benchgate hold them (TestBootHeapBudget
// bounds the parallel boot) — and the probes at 1 and, as P4 twins, at 4.

import (
	"fmt"
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
