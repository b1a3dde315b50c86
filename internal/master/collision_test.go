package master

// Internal tests for the uint64-keyed probe path: bucket verification
// against stored tuples, probe-plan resolution, and the zero-allocation
// guarantee. These live inside the package so they can force hash
// collisions that FNV-1a will essentially never produce naturally.

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/pattern"
	"repro/internal/relation"
	"repro/internal/rule"
)

func kvData(t *testing.T) (*rule.Set, *rule.Rule, *Data) {
	t.Helper()
	r := relation.StringSchema("R", "K", "V", "W")
	rm := relation.StringSchema("Rm", "K", "V", "W")
	ru := rule.MustNew("kv", r, rm, []int{0}, []int{0}, 1, 1, pattern.Empty())
	// kv2 keys on (K, V): its index interns both columns, enabling miss
	// probes whose values are interned but whose combination is absent.
	ru2 := rule.MustNew("kv2", r, rm, []int{0, 1}, []int{0, 1}, 2, 2, pattern.Empty())
	sigma := rule.MustNewSet(r, rm, ru, ru2)
	rel := relation.NewRelation(rm)
	rel.MustAppend(
		relation.StringTuple("k1", "v1", "w1"),
		relation.StringTuple("k2", "v2", "w2"),
		relation.StringTuple("k1", "v1b", "w3"),
	)
	// One shard: these tests inject collisions into raw buckets, which
	// needs a deterministic bucket location. The multi-shard collision
	// path is covered by the shard property tests.
	dm, err := NewForRules(rel, sigma, WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	return sigma, ru, dm
}

// plantBucket rewrites bucket h of one index shard to ids — what a 64-bit
// hash collision looks like to a probe when ids names a foreign tuple. The
// bucket is planted through the overlay, or, with frozen set, through the
// table rebuilt from it, so both layers are held to the verification.
func plantBucket(sh *indexShard, h uint64, ids []int, frozen bool) {
	sh.set(h, ids)
	if frozen {
		sh.layered = layered{frozen: sh.compact()}
	}
}

// TestBucketVerificationFiltersCollisions injects a foreign tuple id into
// the bucket a probe hits — simulating a uint64 hash collision — and
// checks every probe entry point filters it out by verifying the stored
// tuple's projection.
func TestBucketVerificationFiltersCollisions(t *testing.T) {
	for _, frozen := range []bool{false, true} {
		t.Run(fmt.Sprintf("frozen=%v", frozen), func(t *testing.T) {
			_, ru, dm := kvData(t)
			probe := relation.StringTuple("k1", "dirty")

			idx := dm.indexAt(dm.plan.rules[dm.ruleAt(ru)].index)
			h, ok := dm.syms.ProbeTuple(probe, ru.LHS(), nil)
			if !ok {
				t.Fatal("probe must hash")
			}
			// id 1 is the k2 tuple: same bucket now, different projection.
			plantBucket(&idx.shards[0], h, append(slices.Clone(idx.shards[0].get(h)), 1), frozen)

			ids := dm.MatchIDs(ru, probe)
			if len(ids) != 2 || ids[0] != 0 || ids[1] != 2 {
				t.Fatalf("MatchIDs after injected collision = %v, want [0 2]", ids)
			}
			vals, witness := dm.AppendRHSValues(nil, ru, probe)
			if len(vals) != 2 || vals[0].Str() != "v1" || vals[1].Str() != "v1b" || witness != 0 {
				t.Fatalf("AppendRHSValues after injected collision = %v, witness %d", vals, witness)
			}
			// A list that already holds v1b gains only v1: the probe appends
			// the values dst lacks.
			prefix := []relation.Value{relation.String("v1b")}
			if got, witness := dm.AppendRHSValues(prefix, ru, probe); !slices.Equal(got, []relation.Value{prefix[0], vals[0]}) || witness != 0 {
				t.Fatalf("AppendRHSValues(%v) after injected collision = %v, witness %d", prefix, got, witness)
			}

			// A collision at the head of the bucket exercises the filtered path
			// from position 0.
			plantBucket(&idx.shards[0], h, append([]int{1}, idx.shards[0].get(h)...), frozen)
			ids = dm.MatchIDs(ru, probe)
			if len(ids) != 2 || ids[0] != 0 || ids[1] != 2 {
				t.Fatalf("MatchIDs with head collision = %v, want [0 2]", ids)
			}
		})
	}
}

// TestProbeZeroAlloc pins the tentpole guarantee: an indexed MatchIDs probe
// performs zero heap allocations — hit, uninterned miss (symbol-table
// early exit), and interned-combination miss (full hash + empty bucket).
func TestProbeZeroAlloc(t *testing.T) {
	sigma, ru, dm := kvData(t)
	ru2 := sigma.Rule(1)
	hit := relation.StringTuple("k1", "dirty", "x")
	missUninterned := relation.StringTuple("nope", "dirty", "x")
	// k1 and v2 are both interned, but no master tuple pairs them.
	missInterned := relation.StringTuple("k1", "v2", "x")
	if len(dm.MatchIDs(ru2, missInterned)) != 0 {
		t.Fatal("fixture broken: (k1, v2) must miss")
	}

	allocs := testing.AllocsPerRun(1000, func() {
		if ids := dm.MatchIDs(ru, hit); len(ids) != 2 {
			t.Fatal("hit must match twice")
		}
		if ids := dm.MatchIDs(ru, missUninterned); len(ids) != 0 {
			t.Fatal("uninterned miss must not match")
		}
		if ids := dm.MatchIDs(ru2, missInterned); len(ids) != 0 {
			t.Fatal("interned miss must not match")
		}
	})
	if allocs != 0 {
		t.Fatalf("indexed MatchIDs allocates %.1f objects per probe; want 0", allocs)
	}
}

// TestRHSValuesSingleMatchFastPath covers the 0- and 1-match cases of the
// value probe into a fresh list.
func TestRHSValuesSingleMatchFastPath(t *testing.T) {
	_, ru, dm := kvData(t)
	if vals, _ := dm.AppendRHSValues(nil, ru, relation.StringTuple("k2", "x")); len(vals) != 1 || vals[0].Str() != "v2" {
		t.Fatalf("single-match AppendRHSValues = %v", vals)
	}
	if vals, _ := dm.AppendRHSValues(nil, ru, relation.StringTuple("absent", "x")); vals != nil {
		t.Fatalf("no-match AppendRHSValues = %v, want nil", vals)
	}
}

// TestPostOnlyIndexCollision forces a hash collision into an index no rule
// probes by value — the one-column index over V, read only by the
// partial-lhs test of the (K, V) rule — and holds CompatibleExists to
// compatibleScan on every validated subset of a probe per stored tuple and
// an absent one. Such an index keeps no exception table, before and after
// the collision and a delta: that test verifies every candidate's cells.
func TestPostOnlyIndexCollision(t *testing.T) {
	r := relation.StringSchema("R", "K", "V", "W")
	rm := relation.StringSchema("Rm", "K", "V", "W")
	ru := rule.MustNew("kvw", r, rm, []int{0, 1}, []int{0, 1}, 2, 2, pattern.Empty())
	sigma := rule.MustNewSet(r, rm, ru)
	rel := relation.NewRelation(rm)
	for i := range 12 {
		rel.MustAppend(relation.StringTuple(fmt.Sprintf("k%d", i%4), fmt.Sprintf("v%d", i), fmt.Sprintf("w%d", i)))
	}
	dm := MustNewForRules(rel, sigma, WithShards(1))
	post := dm.plan.rules[0].posts[1]
	if idx := dm.indexAt(post); !slices.Equal(idx.xm, []int{1}) || len(idx.bms) != 0 {
		t.Fatalf("fixture broken: index %d over %v tracks %v", post, idx.xm, idx.bms)
	}
	noTable := func(ctx string, d *Data) {
		t.Helper()
		idx := d.indexAt(post)
		idx.rebuildExceptions(0, &d.rows)
		if len(idx.shards[0].exc) != 0 {
			t.Fatalf("%s: the post-only index keeps exceptions %v", ctx, idx.shards[0].exc)
		}
	}
	// Tuple 5 (k1, v5) joins the bucket of v3, beside tuple 3, and fills
	// that of k1, a value no tuple holds in V.
	sh := &dm.indexAt(post).shards[0]
	for _, plant := range []struct {
		v   string
		ids []int
	}{{"v3", []int{3, 5}}, {"k1", []int{5}}} {
		h, ok := dm.syms.ProbeTuple(relation.StringTuple(plant.v), []int{0}, nil)
		if !ok {
			t.Fatal("probe must hash")
		}
		plantBucket(sh, h, plant.ids, false)
	}
	noTable("planted", dm)

	probes := []relation.Tuple{relation.StringTuple("k1", "v3", "w"), relation.StringTuple("k1", "k1", "w"), relation.StringTuple("k9", "v9", "w")}
	for _, tm := range dm.All() {
		probes = append(probes, tm.Clone())
	}
	check := func(ctx string, d *Data) {
		t.Helper()
		for _, p := range probes {
			for _, z := range [][]int{{0}, {1}, {0, 1}, {2}} {
				zSet := relation.NewAttrSet(z...)
				if got, want := d.CompatibleExists(ru, p, zSet), d.compatibleScan(ru, p, zSet); got != want {
					t.Fatalf("%s: CompatibleExists(%v, Z=%v) = %v, the scan %v", ctx, p, z, got, want)
				}
			}
		}
	}
	check("planted", dm)
	// Only the cell comparison rejects tuple 5 from the bucket of k1, and
	// the index path, not the scan, answers.
	if found, scanned := dm.compatible(ru, probes[1], relation.NewAttrSet(1)); found || scanned {
		t.Fatalf("V = k1: found %v scanned %v; want false through the index", found, scanned)
	}
	next, err := dm.ApplyDelta([]relation.Tuple{relation.StringTuple("k2", "v3", "w12")}, []int{7})
	if err != nil {
		t.Fatal(err)
	}
	noTable("after a delta", next)
	check("after a delta", next)
}
