package master

// Test-side equivalence oracle for the versioned master: checkEquiv
// asserts a snapshot reached through a chain of ApplyDelta calls is
// deep-equal — plan, indexes, exception tables, pattern-support counts —
// to MustNewForRules run from scratch on the snapshot's
// materialized relation with the same shard count. Interned value ids
// (and therefore raw uint64 bucket keys, and the shards they route to) are
// the one representation detail allowed to differ: a delta chain interns
// values in historical order, a rebuild in current first-seen order, so the
// comparison
// resolves buckets through each side's own symbol table and router and compares the id contents, which is exactly what
// every probe observes.

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/relation"
	"repro/internal/rule"
)

// tuplesOf copies a relation's tuple headers into a plain slice — the shape
// the shadow oracles edit.
func tuplesOf(rel *relation.Relation) []relation.Tuple {
	out := make([]relation.Tuple, 0, rel.Len())
	for _, t := range rel.All() {
		out = append(out, t)
	}
	return out
}

// shadowApply is the delta semantics contract in its simplest possible
// form, maintained independently from ApplyDelta: deletes descending with
// swap-remove, then adds appended.
func shadowApply(tuples []relation.Tuple, adds []relation.Tuple, deletes []int) []relation.Tuple {
	del := append([]int(nil), deletes...)
	sort.Sort(sort.Reverse(sort.IntSlice(del)))
	out := append([]relation.Tuple(nil), tuples...)
	for _, id := range del {
		last := len(out) - 1
		out[id] = out[last]
		out = out[:last]
	}
	for _, t := range adds {
		out = append(out, t.Clone())
	}
	return out
}

// rebuildOracle materializes got's relation and rebuilds from scratch
// with got's shard count.
func rebuildOracle(t testing.TB, got *Data, sigma *rule.Set) *Data {
	t.Helper()
	rel := relation.NewRelation(got.Relation().Schema())
	for _, tm := range got.Relation().All() {
		rel.MustAppend(tm.Clone())
	}
	want, err := NewForRules(rel, sigma, WithShards(got.nshards))
	if err != nil {
		t.Fatalf("oracle rebuild: %v", err)
	}
	checkTablesAgainstMaps(t, "oracle rebuild", want)
	return want
}

// checkTablesAgainstMaps holds every index shard of a freshly built
// snapshot to Go maps filled here by a plain loop over the relation,
// each entry in the shard its key routes to: the reference shares no code
// with the table builder.
func checkTablesAgainstMaps(t testing.TB, ctx string, d *Data) {
	t.Helper()
	for _, idx := range d.indexes() {
		want := make([]map[uint64][]int, d.nshards)
		for s := range want {
			want[s] = map[uint64][]int{}
		}
		for i, tm := range d.All() {
			h, ok := d.syms.ProbeTuple(tm, idx.xm, nil)
			if !ok {
				t.Fatalf("%s: stored tuple %d not hashable on %v", ctx, i, idx.xm)
			}
			s := keyShard(h, d.nshards)
			want[s][h] = append(want[s][h], i)
		}
		for s := range idx.shards {
			checkLayeredAgainstMap(t, fmt.Sprintf("%s: index %v shard %d", ctx, idx.xm, s), &idx.shards[s].layered, want[s])
		}
	}
}

// checkLayeredAgainstMap requires one shard to hold exactly the map's
// content: every map key resolves to its ids, the keys next to it resolve
// like the map says (mostly misses), and each visits every key exactly once.
func checkLayeredAgainstMap(t testing.TB, ctx string, l *layered, want map[uint64][]int) {
	t.Helper()
	seen := 0
	l.each(func(k uint64, ids []int) {
		seen++
		if !slices.Equal(ids, want[k]) {
			t.Fatalf("%s: each(%#x) = %v, map oracle %v", ctx, k, ids, want[k])
		}
	})
	if seen != len(want) {
		t.Fatalf("%s: each visited %d keys, map oracle holds %d", ctx, seen, len(want))
	}
	for k := range want {
		for _, probe := range []uint64{k, k + 1, k - 1} {
			if got := l.get(probe); !slices.Equal(got, want[probe]) {
				t.Fatalf("%s: get(%#x) = %v, map oracle %v", ctx, probe, got, want[probe])
			}
		}
	}
}

// checkRouting asserts the layout invariant every probe relies on: each
// index key is stored in exactly the shard keyShard names — no shard holds a key that routes elsewhere, and every stored
// tuple's key resolves, in its own shard, to a list carrying the tuple's id.
func checkRouting(t testing.TB, ctx string, d *Data) {
	t.Helper()
	for _, idx := range d.indexes() {
		for s := range idx.shards {
			idx.shards[s].each(func(h uint64, _ []int) {
				if home := keyShard(h, d.nshards); home != s {
					t.Fatalf("%s: index %v key %#x sits in shard %d, routes to %d", ctx, idx.xm, h, s, home)
				}
			})
		}
		for id, tm := range d.All() {
			h, ok := d.syms.ProbeTuple(tm, idx.xm, nil)
			if !ok || !slices.Contains(idx.shard(h).get(h), id) {
				t.Fatalf("%s: index %v: tuple %d missing from the bucket its key routes to", ctx, idx.xm, id)
			}
		}
	}
}

// checkColumnIndexes is the equivalence that licensed deleting the posting
// lists: for every column a multi-column Xm names, the index over that column
// alone — the one the rule's partial-lhs test reads — lists, per value,
// exactly the ascending ids of the tuples whose cell holds it. The oracle is
// a map filled by a plain loop over the materialized tuples. A one-column Xm
// asks for no such index: it is fully validated or not at all.
func checkColumnIndexes(t testing.TB, ctx string, d *Data, sigma *rule.Set) {
	t.Helper()
	for r, ru := range sigma.Rules() {
		xm, posts := ru.LHSM(), d.plan.rules[r].posts
		if len(xm) < 2 {
			if len(posts) != 0 {
				t.Fatalf("%s: rule %s has a one-column Xm and %d one-column indexes", ctx, ru.Name(), len(posts))
			}
			continue
		}
		if len(posts) != len(xm) {
			t.Fatalf("%s: rule %s reads %d one-column indexes for %d columns", ctx, ru.Name(), len(posts), len(xm))
		}
		for i, col := range xm {
			if at := d.plan.find([]int{col}); at < 0 || posts[i] != at {
				t.Fatalf("%s: rule %s column %d: plan reads index %d, the plan lists it at %d", ctx, ru.Name(), col, posts[i], at)
			}
			idx := d.indexAt(posts[i])
			want := map[relation.Value][]int{}
			for id, tm := range d.All() {
				want[tm[col]] = append(want[tm[col]], id)
			}
			for v, ids := range want {
				h, ok := d.syms.ProbeTuple(relation.Tuple{v}, []int{0}, nil)
				if !ok {
					t.Fatalf("%s: stored value %v of column %d not interned", ctx, v, col)
				}
				if got := idx.shard(h).get(h); !slices.Equal(got, ids) {
					t.Fatalf("%s: index [%d] lists %v under %v, the column holds it at %v", ctx, col, got, v, ids)
				}
			}
			// Every id under its own value and no id more: no other bucket.
			if got := idx.size(); got != d.Len() {
				t.Fatalf("%s: index [%d] holds %d ids for %d tuples", ctx, col, got, d.Len())
			}
		}
	}
}

func eqInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkEquiv asserts got is deep-equal to a from-scratch rebuild on its
// materialized relation. ctx labels failures (seed / step).
func checkEquiv(t testing.TB, ctx string, got *Data, sigma *rule.Set) {
	t.Helper()
	want := rebuildOracle(t, got, sigma)
	checkRouting(t, ctx, got)
	checkColumnIndexes(t, ctx, got, sigma)
	n := got.Len()
	if want.Len() != n {
		t.Fatalf("%s: materialized length %d vs snapshot %d", ctx, want.Len(), n)
	}
	if got.nshards != want.nshards {
		t.Fatalf("%s: snapshot has %d shards, rebuild %d", ctx, got.nshards, want.nshards)
	}

	// Plan: the one the rebuild resolves from Σ. Indexes: same total size,
	// identical bucket contents for every stored tuple's projection, each
	// side's bucket read from the one shard its own key routes to.
	if !reflect.DeepEqual(got.plan, want.plan) {
		t.Fatalf("%s: plan %+v, rebuild's %+v", ctx, got.plan, want.plan)
	}
	for i, widx := range want.indexes() {
		gidx := got.indexAt(i)
		if gs, ws := gidx.size(), widx.size(); gs != ws {
			t.Fatalf("%s: index %v holds %d ids, rebuild %d", ctx, widx.xm, gs, ws)
		}
		// Equal totals plus the per-tuple mask comparison below make the
		// tables equal entry for entry (raw keys, and so shards, may differ).
		g, w := 0, 0
		for s := range widx.shards {
			g, w = g+len(gidx.shards[s].exc), w+len(widx.shards[s].exc)
		}
		if g != w {
			t.Fatalf("%s: index %v lists %d exceptions, rebuild %d", ctx, widx.xm, g, w)
		}
		for id := 0; id < n; id++ {
			tm := got.Tuple(id)
			gh, ok := got.syms.ProbeTuple(tm, gidx.xm, nil)
			if !ok {
				t.Fatalf("%s: stored tuple %d not hashable in snapshot index %v", ctx, id, gidx.xm)
			}
			wh, ok := want.syms.ProbeTuple(tm, widx.xm, nil)
			if !ok {
				t.Fatalf("%s: stored tuple %d not hashable in rebuilt index %v", ctx, id, widx.xm)
			}
			gsh, wsh := gidx.shard(gh), widx.shard(wh)
			if gb, wb := gsh.get(gh), wsh.get(wh); !eqInts(gb, wb) {
				t.Fatalf("%s: index %v bucket for tuple %d = %v, rebuild %v", ctx, widx.xm, id, gb, wb)
			}
			if gm, wm := gsh.exc.mask(gh), wsh.exc.mask(wh); gm != wm {
				t.Fatalf("%s: index %v exception mask for tuple %d = %#x, rebuild %#x", ctx, widx.xm, id, gm, wm)
			}
		}
	}

	// Pattern-support counts: identical.
	for r, ru := range sigma.Rules() {
		if g, w := got.supported[r], want.supported[r]; g != w {
			t.Fatalf("%s: rule %s pattern count %d, rebuild %d", ctx, ru.Name(), g, w)
		}
		if got.PatternSupported(ru) != want.PatternSupported(ru) {
			t.Fatalf("%s: rule %s PatternSupported differs", ctx, ru.Name())
		}
	}
}
