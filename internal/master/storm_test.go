package master_test

// The update storm as cfbench's hosp100k_storm runs it, in process: an
// authenticated HOSP lineage under chained deltas of 8 adds and 2 deletes —
// what a delta allocates (BenchmarkApplyDeltaChain) and what the lineage
// keeps (TestStormHeapBudget), counted in bytes so both hold on any host.

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/datagen"
	"repro/internal/master"
	"repro/internal/relation"
)

// stormBatches is datagen.UpdateStorm's batches with every add replaced, as
// cfbench's storm replaces them (bench/data.go), by a master row under a
// fresh hospital identity: HOSP's rules stay functions on the master, so no
// exception table grows, while the row's measure and state land on id lists
// of |Dm|/45 ids — the lists the storm pays for.
func stormBatches(ds *datagen.Dataset, batches int) []datagen.DeltaBatch {
	out := datagen.UpdateStorm(ds, 1, batches, 8, 2)
	schema := ds.Master.Schema()
	serial := 0
	for _, b := range out {
		for i := range b.Adds {
			serial++
			t := ds.Master.Tuple(serial * 7919 % ds.Master.Len())
			for _, attr := range []string{"id", "provNum", "zip", "phn", "hName", "city"} {
				t[schema.MustPos(attr)] = relation.String(fmt.Sprintf("%s-B%07d", attr, serial))
			}
			b.Adds[i] = t
		}
	}
	return out
}

// BenchmarkApplyDeltaChain measures the storm's shape: one op is a chain of
// deltas of 8 adds and 2 deletes, each applied to the snapshot the previous
// one produced. Unlike BenchmarkApplyDelta, which always forks an empty
// overlay, a chain pays for overlays as they fill (and for the compactions
// they trigger), for the symbol table as it grows and for header chunks as
// the tail moves through them. us/delta and KB/delta are per delta
// of the chain.
//
//   - paper: 1,000 deltas from a |Dm| = 60k build of the paper's Rm, whose
//     longest id list is ~70 ids (AC: 900 values).
//   - hosp: 500 deltas on an authenticated 20k-tuple HOSP master, whose
//     mCode, mName and ST lists hold ~450 ids each (2,000–2,500 at the
//     benchmark's 100k), with the Merkle tree maintained beside them.
func BenchmarkApplyDeltaChain(b *testing.B) {
	b.Run("paper", func(b *testing.B) {
		const n, chain = 60_000, 1_000
		rel, sigma := master.BenchMasterRelation(n)
		d0 := master.MustNewForRules(rel, sigma, master.WithShards(1))
		rng := rand.New(rand.NewSource(7))
		batches := make([]datagen.DeltaBatch, chain)
		size := n
		for i := range batches {
			for j := 0; j < 8; j++ {
				batches[i].Adds = append(batches[i].Adds, master.BenchMasterTuple(rng, n+8*i+j))
			}
			batches[i].Deletes = []int{rng.Intn(size - 1), size - 1}
			size += 6
		}
		benchChain(b, d0, batches)
	})
	b.Run("hosp", func(b *testing.B) {
		ds, err := datagen.Hosp(datagen.Config{Seed: 1, MasterSize: 20_000, Tuples: 1, Shards: 1})
		if err != nil {
			b.Fatal(err)
		}
		batches := stormBatches(ds, 500)
		ds.Master.Authenticate()
		benchChain(b, ds.Master, batches)
	})
}

func benchChain(b *testing.B, d0 *master.Data, batches []datagen.DeltaBatch) {
	master.PinProcs(b, 1)
	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cur := d0
		for _, batch := range batches {
			var err error
			if cur, err = cur.ApplyDelta(batch.Adds, batch.Deletes); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	deltas := float64(b.N) * float64(len(batches))
	b.ReportMetric(float64(b.Elapsed().Microseconds())/deltas, "us/delta")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/deltas/1024, "KB/delta")
}

// The storm budgets: 560 B/tuple live and 153 KB allocated per delta,
// measured + 10 % (657 and 195 with a posting list per Xm column beside the
// indexes; 863 and 419 with a Merkle node per tuple and id lists copied
// whole).
const (
	stormLiveBudget  = 615       // B/tuple
	stormDeltaBudget = 168 << 10 // bytes
)

// TestStormHeapBudget holds an authenticated, updating lineage to its memory
// budget: a 20k-tuple HOSP master read from CSV by Builder.ReadCSV under WithAuth, 400
// chained storm deltas published through a Versioned retaining 8 epochs, then
// a collection. MemStats must account for four fifths of what stays live; the
// rest is the overlay tries' nodes, the symbol table's trie over the values
// deltas interned, and what the 7 older epochs of the ring do not share with
// the head.
func TestStormHeapBudget(t *testing.T) {
	if raceDetector {
		t.Skip("byte budgets are those of the uninstrumented build")
	}
	const n, chain = 20_000, 400
	ds, err := datagen.Hosp(datagen.Config{Seed: 1, MasterSize: n, Tuples: 1, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	var csv bytes.Buffer
	if err := ds.Master.Relation().WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	batches, sigma := stormBatches(ds, chain), ds.Sigma
	ds = nil // the lineage under test is built below; this one was only the generator
	master.PinProcs(t, 2)

	var before, built, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	b := master.NewBuilder(sigma, master.WithShards(4), master.WithAuth())
	if err := b.ReadCSV(bytes.NewReader(csv.Bytes())); err != nil {
		t.Fatal(err)
	}
	v := master.NewVersioned(b.Finish())
	b = nil
	runtime.ReadMemStats(&built)
	for _, batch := range batches {
		if _, err := v.Apply(batch.Adds, batch.Deletes); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perDelta := (after.TotalAlloc - built.TotalAlloc) / chain
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(csv)
	runtime.KeepAlive(batches)
	live := after.HeapAlloc - min(before.HeapAlloc, after.HeapAlloc)

	ms := v.Current().MemStats()
	counted := uint64(ms.CellBytes + ms.SymbolBytes + ms.IndexBytes + ms.AuthBytes)
	tuples := uint64(ms.Tuples)
	t.Logf("|Dm| = %d after %d deltas: %d B/tuple live (MemStats counts %d: cells %d, symbols %d, indexes %d, auth %d), %d KB allocated per delta",
		tuples, chain, live/tuples, counted/tuples, uint64(ms.CellBytes)/tuples, uint64(ms.SymbolBytes)/tuples,
		uint64(ms.IndexBytes)/tuples, uint64(ms.AuthBytes)/tuples, perDelta>>10)
	if live > stormLiveBudget*tuples {
		t.Errorf("the lineage keeps %d B/tuple, budget %d", live/tuples, stormLiveBudget)
	}
	if 10*counted < 8*live {
		t.Errorf("MemStats accounts for %d of %d live bytes (%.0f %%), want ≥ 80 %%", counted, live, 100*float64(counted)/float64(live))
	}
	if perDelta > stormDeltaBudget {
		t.Errorf("a delta allocated %d bytes, budget %d", perDelta, stormDeltaBudget)
	}
}
