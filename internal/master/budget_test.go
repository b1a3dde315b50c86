package master_test

// Memory budgets of the two boot paths, counted in allocated and live bytes
// (runtime.MemStats) rather than timed, so they hold on any host.

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/datagen"
	"repro/internal/master"
	"repro/internal/relation"
	"repro/internal/rule"
)

// hospCSV generates an n-tuple HOSP master and returns it as CSV bytes with
// its rule set.
func hospCSV(t testing.TB, n int) ([]byte, *rule.Set) {
	t.Helper()
	ds, err := datagen.Hosp(datagen.Config{Seed: 1, MasterSize: n, Tuples: 1, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ds.Master.Relation().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), ds.Sigma
}

// measure runs build and returns what it allocated in total and what of
// that is still live after a collection, with the built value kept
// reachable until then.
func measure(build func() any) (allocated, live uint64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	built := build()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(built)
	return after.TotalAlloc - before.TotalAlloc, after.HeapAlloc - min(before.HeapAlloc, after.HeapAlloc)
}

// TestBootHeapBudget reads a 20k-tuple HOSP master from CSV bytes with
// Builder.ReadCSV — the path certainfix.NewFromCSV boots on, chunks parsed
// and interned on two workers — and bounds what the snapshot keeps, cells,
// symbols and tables together, and how much garbage building it
// made: 296 B/tuple kept and 1.70× that allocated, measured (2.14× when the
// rows were decoded one at a time beside a serial interner; 329 B/tuple
// kept with a posting list per Xm column beside the indexes). As a relation
// of values with its indexes beside it the same master kept about 1,080
// B/tuple.
func TestBootHeapBudget(t *testing.T) {
	const n = 20_000
	csv, sigma := hospCSV(t, n)
	prev := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prev)
	allocated, live := measure(func() any {
		b := master.NewBuilder(sigma, master.WithShards(4))
		if err := b.ReadCSV(bytes.NewReader(csv)); err != nil {
			t.Fatal(err)
		}
		return b.Finish()
	})
	runtime.KeepAlive(csv) // or the second collection frees it and hides 200 B/tuple of the snapshot
	t.Logf("|Dm| = %d: %d B/tuple live, %d B/tuple allocated (%.2f×)", n, live/n, allocated/n, float64(allocated)/float64(live))
	if live > 325*n {
		t.Errorf("snapshot keeps %d B/tuple, budget 325", live/n)
	}
	if allocated > 2*live {
		t.Errorf("boot allocated %.2f× what it keeps, budget 2×", float64(allocated)/float64(live))
	}
}

// TestArenaLoadAllocBudget bounds what loading an image allocates, per tuple:
// the rows, tables and strings stay in the image, and what is built beside
// them is a header per row, the symbol table, and the exception tables and
// support counts the image does not store — 54.6 B/tuple measured, whatever
// the image holds.
func TestArenaLoadAllocBudget(t *testing.T) {
	const n = 20_000
	csv, sigma := hospCSV(t, n)
	rel, err := relation.ReadCSV(sigma.MasterSchema(), bytes.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	var img bytes.Buffer
	if err := master.MustNewForRules(rel, sigma, master.WithShards(4)).SaveArena(&img, sigma); err != nil {
		t.Fatal(err)
	}
	prev := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prev)
	allocated, _ := measure(func() any {
		d, err := master.LoadArenaBytes(img.Bytes(), sigma)
		if err != nil {
			t.Fatal(err)
		}
		return d
	})
	runtime.KeepAlive(img)
	t.Logf("image %d bytes, load allocated %d (%d B/tuple, %.2f× the image)", img.Len(), allocated, allocated/n, float64(allocated)/float64(img.Len()))
	if allocated > 59*n {
		t.Errorf("loading %d tuples allocated %d B/tuple, budget 59", n, allocated/n)
	}
}
