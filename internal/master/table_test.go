package master

// Property and fuzz tests for the frozen table (table.go): whatever (key,
// id) multiset goes in, the built table answers like a Go map filled by a
// plain loop, passes the arena loader's own validation, and — the layout
// being canonical — comes out as the same bytes from every insertion
// history: a fresh build, a build in another pair order, an older table
// under an overlay of deltas (tombstones included) after compaction, and a
// save → load → save round trip.

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// checkTable holds one built table to the map oracle and the loader, and
// returns its image bytes. Ids must be < n.
// buildTable is buildTableSorting with a sort buffer of its own, which
// counts the keys when they are few and sorts them whole otherwise: both
// build the same table, and so does each path on its own.
func buildTable(keys []uint64, ids []int) table {
	tab := buildTableSorting(keys, ids, make([]uint64, len(keys)), newKeyCounts(0))
	for _, kc := range []*keyCounts{nil, newKeyCounts(maxCountedKeys)} {
		other := buildTableSorting(keys, ids, make([]uint64, len(keys)), kc)
		if !slices.Equal(other.slots, tab.slots) || !slices.Equal(other.ids, tab.ids) {
			panic(fmt.Sprintf("counting the keys builds another table than sorting them: %v %v against %v %v", other.slots, other.ids, tab.slots, tab.ids))
		}
	}
	return tab
}

func checkTable(t testing.TB, ctx string, tab table, keys []uint64, ids []int, n int) []byte {
	t.Helper()
	want := map[uint64][]int{}
	for i, k := range keys {
		want[k] = append(want[k], ids[i])
	}
	agrees := func(what string, tab *table) {
		t.Helper()
		for k, w := range want {
			if got := tab.get(k); !slices.Equal(got, w) {
				t.Fatalf("%s: %s get(%#x) = %v, oracle %v", ctx, what, k, got, w)
			}
			for _, miss := range []uint64{k + 1, k ^ 1<<63, k + uint64(len(tab.slots)/2)} {
				if got := tab.get(miss); !slices.Equal(got, want[miss]) {
					t.Fatalf("%s: %s get(%#x) = %v, oracle %v", ctx, what, miss, got, want[miss])
				}
			}
		}
		seen := map[uint64]bool{}
		tab.each(func(k uint64, got []int) {
			if seen[k] {
				t.Fatalf("%s: %s each visited key %#x twice", ctx, what, k)
			}
			seen[k] = true
			if !slices.Equal(got, want[k]) {
				t.Fatalf("%s: %s each(%#x) = %v, oracle %v", ctx, what, k, got, want[k])
			}
		})
		if len(seen) != len(want) || tab.nkeys != len(want) {
			t.Fatalf("%s: %s holds %d keys (nkeys %d), oracle %d", ctx, what, len(seen), tab.nkeys, len(want))
		}
	}
	agrees("built table", &tab)
	if nslots := len(tab.slots) / 2; nslots != tableSlots(len(want)) || uint64(nslots-1) != tab.mask {
		t.Fatalf("%s: %d slots, mask %#x for %d keys", ctx, nslots, tab.mask, len(want))
	}

	// The loader's validation: power-of-two slots, an empty slot, spans
	// inside ids, counts matching, ids ascending and < n (shard 0 of 1: every
	// key routes there).
	img := tableImage(t, ctx, tab)
	r := &areader{b: append([]byte(nil), img...), sec: "table"}
	loaded := layoutTable(r)
	if r.err != nil {
		t.Fatalf("%s: built table fails the loader's layout: %v", ctx, r.err)
	}
	if err := validateTable(loaded, 0, n, 0, 1, nil); err != nil {
		t.Fatalf("%s: built table fails the loader's validation: %v", ctx, err)
	}
	if r.off != len(r.b) {
		t.Fatalf("%s: decoder consumed %d of %d bytes", ctx, r.off, len(r.b))
	}
	agrees("loaded table", &loaded)
	if !bytes.Equal(tableImage(t, ctx, loaded), img) {
		t.Fatalf("%s: save → load → save changed the bytes", ctx)
	}
	return img
}

// tableImage is the table as SaveArena writes it, after checking that the
// sizing pass counts exactly the bytes the writing pass emits.
func tableImage(t testing.TB, ctx string, tab table) []byte {
	t.Helper()
	l := &layered{frozen: tab}
	var sized arenaWriter
	writeTable(&sized, l)
	var buf bytes.Buffer
	out := arenaWriter{w: bufio.NewWriter(&buf)}
	writeTable(&out, l)
	if err := out.w.Flush(); err != nil || out.err != nil {
		t.Fatalf("%s: table write failed: %v, %v", ctx, out.err, err)
	}
	if sized.off != out.off || int(out.off) != buf.Len() {
		t.Fatalf("%s: sizing pass counted %d bytes, writing pass %d, buffer holds %d", ctx, sized.off, out.off, buf.Len())
	}
	return buf.Bytes()
}

// regroup returns the pairs in another order — key groups in random order,
// a few of them split and interleaved — keeping each key's ids ascending.
func regroup(rng *rand.Rand, keys []uint64, ids []int) ([]uint64, []int) {
	groups := map[uint64][]int{}
	var order []uint64
	for i, k := range keys {
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], ids[i])
	}
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	var outK []uint64
	var outI []int
	var tailK []uint64
	var tailI []int
	for _, k := range order {
		g := groups[k]
		cut := len(g)
		if rng.Intn(3) == 0 {
			cut = rng.Intn(len(g) + 1)
		}
		for _, id := range g[:cut] {
			outK, outI = append(outK, k), append(outI, id)
		}
		for _, id := range g[cut:] {
			tailK, tailI = append(tailK, k), append(tailI, id)
		}
	}
	return append(outK, tailK...), append(outI, tailI...)
}

// viaDeltas reaches the same content as a delta chain would: an older
// table holding a random part of it (plus keys that no longer exist),
// every difference shadowed in the overlay, then compacted.
func viaDeltas(rng *rand.Rand, keys []uint64, ids []int) layered {
	final := map[uint64][]int{}
	for i, k := range keys {
		final[k] = append(final[k], ids[i])
	}
	var oldK []uint64
	var oldI []int
	for i, k := range keys {
		if rng.Intn(2) == 0 {
			oldK, oldI = append(oldK, k), append(oldI, ids[i])
		}
	}
	var gone []uint64
	for i := 0; i < 3; i++ {
		k := rng.Uint64()
		if _, live := final[k]; !live {
			gone = append(gone, k)
			oldK, oldI = append(oldK, k), append(oldI, i)
		}
	}
	l := layered{frozen: buildTable(oldK, oldI)}
	for k, v := range final {
		if len(l.frozen.get(k)) != len(v) {
			l.set(k, v)
		}
	}
	for _, k := range gone {
		l.set(k, nil)
	}
	return l
}

type tableCase struct {
	name string
	keys []uint64
}

// tableCases yields the shapes the builder must survive, as (keys, ids)
// pairs with ids 0..n-1 in order (so every key's ids ascend).
func tableCases(rng *rand.Rand) []tableCase {
	cases := []tableCase{
		{"empty", nil},
		{"one id", []uint64{rng.Uint64()}},
		{"key 0", []uint64{0, 0, 7, 0}},
		{"max key", []uint64{^uint64(0), ^uint64(0) - 1, ^uint64(0)}},
	}
	// One key holding everything: the largest bucket the tests can afford.
	big := make([]uint64, 1<<16)
	for i := range big {
		big[i] = 0xfeed
	}
	cases = append(cases, tableCase{"single key", big})
	// Keys equal modulo the slot mask: m keys need tableSlots(m) slots, so
	// home + j·nslots all probe from one home slot; the last slot as home
	// makes the chain wrap the table end.
	for _, m := range []int{2, 5, 64} {
		nslots := uint64(tableSlots(m))
		for _, home := range []uint64{0, nslots / 2, nslots - 1} {
			var ks []uint64
			for j := 0; j < m; j++ {
				for c := 0; c <= rng.Intn(3); c++ {
					ks = append(ks, home+uint64(j)*nslots)
				}
			}
			rng.Shuffle(len(ks), func(i, j int) { ks[i], ks[j] = ks[j], ks[i] })
			cases = append(cases, tableCase{fmt.Sprintf("chain m=%d home=%d", m, home), ks})
		}
	}
	// Random multisets over small (duplicate-heavy) and full key spaces.
	for i := 0; i < 24; i++ {
		n := rng.Intn(400)
		space := uint64(1) << uint(1+rng.Intn(63))
		ks := make([]uint64, n)
		for j := range ks {
			ks[j] = rng.Uint64() % space
		}
		cases = append(cases, tableCase{fmt.Sprintf("random %d", i), ks})
	}
	return cases
}

func TestBuildTableBuckets(t *testing.T) {
	rng := rand.New(rand.NewSource(71_000_000))
	for _, tc := range tableCases(rng) {
		name, keys := tc.name, tc.keys
		ids := make([]int, len(keys))
		for i := range ids {
			ids[i] = i
		}
		n := len(keys)
		img := checkTable(t, name, buildTable(keys, ids), keys, ids, n)

		k2, i2 := regroup(rng, keys, ids)
		if other := checkTable(t, name+" regrouped", buildTable(k2, i2), k2, i2, n); !bytes.Equal(img, other) {
			t.Fatalf("%s: another pair order built different bytes", name)
		}

		l := viaDeltas(rng, keys, ids)
		if other := checkTable(t, name+" compacted", l.compact(), keys, ids, n); !bytes.Equal(img, other) {
			t.Fatalf("%s: table + overlay compacted to different bytes", name)
		}
		// fork compacts by itself once the overlay outgrows the table.
		if f := l.fork(); f.over.Len() == 0 {
			if other := checkTable(t, name+" forked", f.frozen, keys, ids, n); !bytes.Equal(img, other) {
				t.Fatalf("%s: fork compacted to different bytes", name)
			}
		} else if f.over.Len() != l.over.Len() || f.frozen.nkeys != l.frozen.nkeys {
			t.Fatalf("%s: fork kept %d of %d overlay keys", name, f.over.Len(), l.over.Len())
		}
	}
}

// maxProbe returns the longest walk get makes to reach a stored key, in
// slots visited.
func maxProbe(t *table) int {
	longest := 0
	t.each(func(k uint64, _ []int) {
		n := 1
		for slot := k & t.mask; t.slots[2*slot+1] == 0 || t.slots[2*slot] != k; slot = (slot + 1) & t.mask {
			n++
		}
		longest = max(longest, n)
	})
	return longest
}

// TestShardTablesProbeNoLonger pins what the router owes the tables: the
// shard of a key is picked from bits independent of the k&mask bits its
// table slots it by, so a P=4 shard table is a quarter-size table at the
// same load, and its longest linear-probe walk is no longer than the P=1
// table's, on what every key is: a projection hash (random 64-bit keys). A
// router that reused slot bits — k % P — would leave a quarter of each shard
// table's slots reachable and fail.
func TestShardTablesProbeNoLonger(t *testing.T) {
	const n, p = 100_000, 4
	rng := rand.New(rand.NewSource(72_000_000))
	keys, ids := make([]uint64, n), make([]int, n)
	for i := range keys {
		keys[i], ids[i] = rng.Uint64(), i
	}
	whole := buildTable(keys, ids)
	limit := maxProbe(&whole)
	gkeys := make([]uint64, n)
	start := groupByShard(keys, gkeys, ids, p)
	for s := 0; s < p; s++ {
		shard := buildTable(gkeys[start[s]:start[s+1]], ids[start[s]:start[s+1]])
		if shard.nkeys < n/p*9/10 || shard.nkeys > n/p*11/10 {
			t.Errorf("shard %d holds %d of %d keys", s, shard.nkeys, n)
		}
		if got := maxProbe(&shard); got > limit {
			t.Errorf("shard %d of %d probes up to %d slots, the unsharded table %d", s, p, got, limit)
		}
	}
}

// FuzzBuildTable derives a (key, id) multiset from the input — the first
// byte picks a key stride, so small strides give duplicate-heavy tables and
// large ones keys equal modulo the slot mask — and holds the built table to
// the same oracle, validation and history-independence as the property
// test.
func FuzzBuildTable(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 1, 2, 3, 5, 8})
	f.Add([]byte{9, 0, 1, 2, 3, 4, 5, 6, 7, 255, 255})
	f.Add([]byte{63, 1, 2, 1, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<9 {
			data = data[:1<<9]
		}
		var keys []uint64
		var ids []int
		if len(data) > 0 {
			stride := uint64(1) << (data[0] % 64)
			for i, b := range data[1:] {
				keys, ids = append(keys, uint64(b)*stride), append(ids, i)
			}
		}
		img := checkTable(t, "fuzz", buildTable(keys, ids), keys, ids, len(keys))
		rng := rand.New(rand.NewSource(int64(len(data))))
		l := viaDeltas(rng, keys, ids)
		if other := checkTable(t, "fuzz compacted", l.compact(), keys, ids, len(keys)); !bytes.Equal(img, other) {
			t.Fatal("table + overlay compacted to different bytes")
		}
	})
}
