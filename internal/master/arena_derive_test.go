package master

// What an arena load derives and which failure it reports. An image does
// not store the exception tables or the pattern-support counts: LoadArena
// derives them in the parallel pass that validates the image. They must be
// what a rebuild derives from the loaded rows and buckets, and what the heap
// build that saved the image holds. A corrupt image must fail with the
// failure first in file order, and with its checksum's whenever the trailer
// does not match. Both hold at every GOMAXPROCS: CI runs these tests with
// -cpu 1,2,4, and each load below runs at 1, 2 and 4 as well.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/pattern"
	"repro/internal/relation"
	"repro/internal/rule"
)

// loadProcs are the GOMAXPROCS values every load of these tests runs at.
var loadProcs = []int{1, 2, 4}

// checkDerived reports where d's exception tables differ from the ones
// rebuildExceptions derives from its buckets and rows, or its support
// counts from a patternCompatible scan of its rows.
func checkDerived(d *Data) error {
	for i := range d.plan.indexes {
		idx := d.indexAt(i)
		fresh := index{idx.indexPlan, slices.Clone(idx.shards)}
		for s := range idx.shards {
			fresh.shards[s].exc = nil
			fresh.rebuildExceptions(s, &d.rows)
			if got, want := idx.shards[s].exc, fresh.shards[s].exc; !slices.Equal(got, want) {
				return fmt.Errorf("index %v shard %d: exceptions %v, rebuilt %v", idx.xm, s, got, want)
			}
		}
	}
	for r, want := range supportScan(d) {
		if got := d.supported[r]; got != want {
			return fmt.Errorf("rule %s: support %d, the scan counts %d", d.plan.rules[r].ru.Name(), got, want)
		}
	}
	return nil
}

// supportScan counts, per rule of d's plan, the rows patternCompatible
// accepts: the value-level reference for the id-level count.
func supportScan(d *Data) []int {
	counts := make([]int, len(d.plan.rules))
	for r, rp := range d.plan.rules {
		for _, row := range d.rows.All() {
			if patternCompatible(rp.ru, row, d.syms) {
				counts[r]++
			}
		}
	}
	return counts
}

// checkLoadDerives saves built, loads it at every loadProcs and holds what
// each load derived to checkDerived and to what built holds.
func checkLoadDerives(t *testing.T, built *Data, sigma *rule.Set) {
	t.Helper()
	if err := checkDerived(built); err != nil {
		t.Fatalf("built: %v", err)
	}
	img := saveArenaBytes(t, built, sigma)
	for _, p := range loadProcs {
		pinProcs(t, p)
		loaded := loadArenaOrFatal(t, img, sigma)
		if err := checkDerived(loaded); err != nil {
			t.Fatalf("loaded at P=%d: %v", p, err)
		}
		for i := range built.shards {
			if got, want := loaded.shards[i].exc, built.shards[i].exc; !slices.Equal(got, want) {
				t.Fatalf("loaded at P=%d: shard table %d: exceptions %v, the build's %v", p, i, got, want)
			}
		}
		if !slices.Equal(loaded.supported, built.supported) {
			t.Fatalf("loaded at P=%d: support %v, the build's %v", p, loaded.supported, built.supported)
		}
	}
}

// TestArenaLoadDerivesRebuilt: a loaded image's exception tables and
// support counts equal a rebuild's on a dirty master with non-uniform
// buckets, on one with a forced 64-bit key collision, on an index whose
// buckets are all singletons and for pattern constants Dm does not hold.
// HOSP is TestArenaLoadDerivesRebuiltHOSP, in the external test package.
func TestArenaLoadDerivesRebuilt(t *testing.T) {
	t.Run("dirty", func(t *testing.T) {
		for seed := range 6 {
			rng := rand.New(rand.NewSource(int64(74_000_000 + seed)))
			w := newUniformWorld(rng)
			built := MustNewForRules(w.relation(200+rng.Intn(200), true), w.sigma, WithShards(1+seed%3))
			listed := 0
			for _, sh := range built.shards {
				listed += len(sh.exc)
			}
			if listed == 0 {
				t.Fatalf("seed %d: a dirty master lists no bucket", seed)
			}
			checkLoadDerives(t, built, w.sigma)
		}
	})

	t.Run("collision", func(t *testing.T) {
		// kvData's master, with tuple 1 (k2) planted in the table bucket of
		// k1: a bucket holding two projections, which every probe scans.
		sigma, ru, d := kvData(t)
		idx := d.indexAt(d.plan.rules[0].index)
		h, ok := d.syms.ProbeTuple(relation.StringTuple("k1"), []int{0}, nil)
		if !ok {
			t.Fatal("probe must hash")
		}
		plantBucket(&idx.shards[0], h, []int{0, 1, 2}, true)
		idx.rebuildExceptions(0, &d.rows)
		if m := idx.shards[0].exc.mask(h); m != collided {
			t.Fatalf("planted bucket has mask %#x, want collided", m)
		}
		checkLoadDerives(t, d, sigma)
		loaded := loadArenaOrFatal(t, saveArenaBytes(t, d, sigma), sigma)
		if got := rhsValues(loaded, ru, relation.StringTuple("k1", "", "")); len(got) != 2 {
			t.Fatalf("loaded collided bucket answers %v, want both of k1's values", got)
		}
	})

	t.Run("singletons", func(t *testing.T) {
		// kvData's (K, V) index tracks W, and each of its buckets holds one
		// tuple: no exception is derived for it, and none is needed.
		sigma, _, d := kvData(t)
		idx := d.indexAt(d.plan.rules[1].index)
		if len(idx.bms) == 0 || idx.shards[0].frozen.nkeys != len(idx.shards[0].frozen.ids) {
			t.Fatalf("fixture broken: index %v tracks %v over %d keys and %d ids",
				idx.xm, idx.bms, idx.shards[0].frozen.nkeys, len(idx.shards[0].frozen.ids))
		}
		checkLoadDerives(t, d, sigma)
	})

	t.Run("absent constants", func(t *testing.T) {
		// Pattern constants no master tuple holds: an equality with one
		// matches no row, an inequality every row, beside constants Dm does
		// hold on the same column.
		r := relation.StringSchema("R", "A", "B", "C")
		rm := relation.StringSchema("Rm", "MA", "MB", "MC")
		cell := func(c pattern.Cell) pattern.Tuple { return pattern.MustTuple([]int{1}, []pattern.Cell{c}) }
		rules := []*rule.Rule{}
		for i, c := range []pattern.Cell{
			pattern.EqStr("absent"), pattern.NeqStr("absent"), pattern.EqStr("b1"), pattern.NeqStr("b1"),
			pattern.Eq(relation.Null), pattern.Neq(relation.Null), pattern.Eq(relation.Int(7)),
		} {
			rules = append(rules, rule.MustNew(fmt.Sprint("p", i), r, rm, []int{0, 1}, []int{0, 1}, 2, 2, cell(c)))
		}
		sigma := rule.MustNewSet(r, rm, rules...)
		rel := relation.NewRelation(rm)
		for i := range 50 {
			rel.MustAppend(relation.StringTuple(fmt.Sprint("a", i%7), fmt.Sprint("b", i%3), fmt.Sprint("c", i%5)))
		}
		d := MustNewForRules(rel, sigma, WithShards(2))
		if want := []int{0, 50, 17, 33, 0, 50, 0}; !slices.Equal(d.supported, want) {
			t.Fatalf("support %v, want %v", d.supported, want)
		}
		checkLoadDerives(t, d, sigma)
	})
}

// imageTables returns the offset of every shard table in the image's index
// section, in file order.
func imageTables(img []byte) []int {
	nshards := int(binary.LittleEndian.Uint32(img[hdrNShards:]))
	var starts []int
	for _, sp := range arenaIndexSpans(img) {
		off := sp[0] + 4 + 4*int(binary.LittleEndian.Uint32(img[sp[0]:]))
		off += (8 - off%8) % 8
		for range nshards {
			starts = append(starts, off)
			nslots := int(binary.LittleEndian.Uint64(img[off:]))
			nids := int(binary.LittleEndian.Uint64(img[off+16:]))
			off += 24 + 16*nslots + 8*nids
		}
	}
	return starts
}

// spoilBucket overwrites the first id of the first bucket of the table at
// off with id.
func spoilBucket(img []byte, off int, id uint64) {
	nslots := int(binary.LittleEndian.Uint64(img[off:]))
	slots, ids := off+24, off+24+16*nslots
	for slot := range nslots {
		if packed := binary.LittleEndian.Uint64(img[slots+16*slot+8:]); packed != 0 {
			binary.LittleEndian.PutUint64(img[ids+8*int(packed>>32):], id)
			return
		}
	}
	panic("table holds no bucket")
}

// TestArenaReportsFirstFailure: an image corrupt in two places fails with
// the failure first in file order, at every GOMAXPROCS and on every try,
// located and worded as a load that validated the image serially words it.
// The same image with a bad trailer fails its checksum instead: the sum is
// the load's first job, and a mismatch wins over whatever the others find.
func TestArenaReportsFirstFailure(t *testing.T) {
	// Over two range checks' worth of rows, so the rows check runs as
	// several jobs, and two shards per index.
	n := 2*rowsPerCheck + 100
	rel, sigma := benchMasterRelation(n)
	img := saveArenaBytes(t, MustNewForRules(rel, sigma, WithShards(2)), sigma)
	secOff := func(i int) int { return int(binary.LittleEndian.Uint64(img[hdrSections+8*i:])) }
	arity := sigma.MasterSchema().Arity()
	nsyms := int(binary.LittleEndian.Uint32(img[hdrNSyms:]))
	tables := imageTables(img)
	const bad = 1 << 40
	for _, tc := range []struct {
		name string
		mut  func(b []byte)
		want SnapshotError
	}{
		{"two tables with bad ids", func(b []byte) {
			spoilBucket(b, tables[1], bad)
			spoilBucket(b, tables[len(tables)-1], bad)
		}, SnapshotError{Section: "indexes", Offset: tables[1],
			Msg: fmt.Sprintf("bucket id %d out of range %d or not ascending", bad, n)}},
		{"a bad id before a bad slot count", func(b []byte) {
			spoilBucket(b, tables[2], bad)
			binary.LittleEndian.PutUint64(b[tables[3]:], 3)
		}, SnapshotError{Section: "indexes", Offset: tables[2],
			Msg: fmt.Sprintf("bucket id %d out of range %d or not ascending", bad, n)}},
		{"a misrouted key before a bad id", func(b []byte) {
			// The first key of table 0 moved to the key that routes to shard
			// 1 — its first occupied slot, which spoilBucket finds too.
			nslots := int(binary.LittleEndian.Uint64(b[tables[0]:]))
			for slot := range nslots {
				at := tables[0] + 24 + 16*slot
				if binary.LittleEndian.Uint64(b[at+8:]) != 0 {
					binary.LittleEndian.PutUint64(b[at:], misroutedKey(0, 2))
					break
				}
			}
			spoilBucket(b, tables[1], bad)
		}, SnapshotError{Section: "indexes", Offset: tables[0],
			Msg: fmt.Sprintf("key %#x sits in shard 0 but routes to shard 1 of 2", misroutedKey(0, 2))}},
		{"two bad cells in two range checks", func(b []byte) {
			binary.LittleEndian.PutUint32(b[secOff(secRows)+4*(1*arity+2):], 0xffffffff)
			binary.LittleEndian.PutUint32(b[secOff(secRows)+4*((rowsPerCheck+5)*arity):], 0xfffffffe)
		}, SnapshotError{Section: "rows", Offset: secOff(secRows) + 4*(1*arity+2),
			Msg: fmt.Sprintf("cell (1,2): value id %d out of range %d", uint32(0xffffffff), nsyms)}},
		{"a bad symbol count before a bad cell", func(b []byte) {
			binary.LittleEndian.PutUint32(b[hdrNSyms:], uint32(nsyms-1))
			binary.LittleEndian.PutUint32(b[secOff(secRows)+4*((rowsPerCheck+5)*arity):], 0xfffffffe)
		}, SnapshotError{Section: "symbols", Offset: -1}},
		{"a bad cell before a bad table", func(b []byte) {
			binary.LittleEndian.PutUint32(b[secOff(secRows)+4*((rowsPerCheck+5)*arity):], 0xfffffffe)
			spoilBucket(b, tables[0], bad)
		}, SnapshotError{Section: "rows", Offset: secOff(secRows) + 4*((rowsPerCheck+5)*arity),
			Msg: fmt.Sprintf("cell (%d,0): value id %d out of range %d", rowsPerCheck+5, uint32(0xfffffffe), nsyms)}},
	} {
		mut := append([]byte(nil), img...)
		tc.mut(mut)
		resealArena(mut)
		t.Run(tc.name, func(t *testing.T) {
			if got := firstFailure(t, mut, sigma); got.Section != tc.want.Section ||
				tc.want.Offset >= 0 && got.Offset != tc.want.Offset || tc.want.Msg != "" && got.Msg != tc.want.Msg {
				t.Fatalf("got %v, want %v", got, &tc.want)
			}
		})
		t.Run(tc.name+" and a bad trailer", func(t *testing.T) {
			unsealed := append([]byte(nil), mut...)
			unsealed[len(unsealed)-1] ^= 0x5a
			if got := firstFailure(t, unsealed, sigma); got.Section != "trailer" || got.Offset != len(unsealed)-arenaTrailerSize {
				t.Fatalf("got %v, want the trailer's checksum failure", got)
			}
		})
	}
}

// firstFailure loads img at every loadProcs, four times each, and returns the
// *SnapshotError every load fails with; it fails the test when one load
// reports another.
func firstFailure(t *testing.T, img []byte, sigma *rule.Set) *SnapshotError {
	t.Helper()
	var first *SnapshotError
	for _, p := range loadProcs {
		pinProcs(t, p)
		for try := range 4 {
			_, err := LoadArenaBytes(img, sigma)
			var se *SnapshotError
			if !errors.Is(err, ErrBadSnapshot) || !errors.As(err, &se) {
				t.Fatalf("P=%d: got %v, want a *SnapshotError", p, err)
			}
			if first == nil {
				first = se
			}
			if *se != *first {
				t.Fatalf("P=%d try %d: %v, at the first try %v", p, try, se, first)
			}
		}
	}
	return first
}

// misroutedKey returns the smallest key that keyShard routes to another
// shard of p than s.
func misroutedKey(s, p int) uint64 {
	for k := uint64(1); ; k++ {
		if keyShard(k, p) != s {
			return k
		}
	}
}
