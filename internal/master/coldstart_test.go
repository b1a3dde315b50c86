package master_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/master"
	"repro/internal/relation"
	"repro/internal/rule"
)

// TestArenaLoadDerivesRebuiltHOSP is TestArenaLoadDerivesRebuilt on a 20k
// HOSP master at four shards: its strided measure buckets, its
// all-singleton (id, mCode) index and its provNum, phn and zip patterns.
func TestArenaLoadDerivesRebuiltHOSP(t *testing.T) {
	csv, sigma := hospCSV(t, 20_000)
	rel, err := relation.ReadCSV(sigma.MasterSchema(), bytes.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	master.CheckLoadDerives(t, master.MustNewForRules(rel, sigma, master.WithShards(4)), sigma)
}

// BenchmarkColdStartArena is the boot path with a snapshot: open the saved
// image, map it, validate it, and derive the snapshot. File pages are warm
// (saved in the same process), which matches a service restarting on the
// machine that holds its snapshot. GOMAXPROCS is pinned to 1, so allocs/op
// does not depend on scheduling.
//
//   - Dm=N: the paper's Rm at one shard (BenchmarkColdStartRebuild's
//     master), whose buckets are small.
//   - hosp=100000: HOSP at its own shard count, the master cfbench's
//     hosp100k_arena boots on. Its measure columns hold 40 buckets of 2,500
//     ids each, strided across the relation, which is where the load's
//     exception walk goes.
func BenchmarkColdStartArena(b *testing.B) {
	const p = 1
	master.PinProcs(b, p)
	type image struct {
		name  string
		sigma *rule.Set
		d     *master.Data
	}
	var images []image
	for _, n := range []int{10_000, 100_000} {
		rel, sigma := master.BenchMasterRelation(n)
		images = append(images, image{fmt.Sprintf("Dm=%d", n), sigma, master.MustNewForRules(rel, sigma, master.WithShards(p))})
	}
	const nhosp = 100_000
	csv, sigma := hospCSV(b, nhosp)
	rel, err := relation.ReadCSV(sigma.MasterSchema(), bytes.NewReader(csv))
	if err != nil {
		b.Fatal(err)
	}
	images = append(images, image{fmt.Sprintf("hosp=%d", nhosp), sigma, master.MustNewForRules(rel, sigma)})

	for _, im := range images {
		path := filepath.Join(b.TempDir(), "master.arena")
		if err := im.d.SaveArenaFile(path, im.sigma); err != nil {
			b.Fatal(err)
		}
		fi, err := os.Stat(path)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(im.name, func(b *testing.B) {
			master.PinProcs(b, p)
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
				if _, err := master.LoadArena(path, im.sigma); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
