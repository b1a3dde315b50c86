package master

// The sharding property: for EVERY shard count P, builds and delta chains
// produce probe results byte-identical to the unsharded (P=1) oracle —
// tuple ids are global and a key's one bucket holds all of them, so P is
// invisible to every caller. The P=1 oracle comes out of the same
// builder as the snapshots it checks, so every built table is also held to
// the map oracle of equiv_test.go, which shares no code with it. These tests sweep P ∈ {1, 2, 7, 16}
// (one, even, prime, and more-shards-than-some-relations) across
// randomized instances, forced hash collisions, and delta chains long
// enough to push shard overlays across the flatten-at-1/4 compaction
// threshold.

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/pattern"
	"repro/internal/relation"
	"repro/internal/rule"
)

var shardSweep = []int{1, 2, 7, 16}

// randomShardInstance builds a randomized (Rm relation, Σ) pair plus the
// value pool used to generate probes, without building the master yet —
// each shard count builds its own Data over the same relation.
func randomShardInstance(rng *rand.Rand) (*relation.Relation, *rule.Set, []string) {
	nR := 3 + rng.Intn(3)
	nM := 3 + rng.Intn(3)
	rNames := make([]string, nR)
	for i := range rNames {
		rNames[i] = fmt.Sprintf("A%d", i)
	}
	mNames := make([]string, nM)
	for i := range mNames {
		mNames[i] = fmt.Sprintf("M%d", i)
	}
	r := relation.StringSchema("R", rNames...)
	rm := relation.StringSchema("Rm", mNames...)

	// Enough distinct values that tuples spread across 16 shards, skewed
	// so one-column buckets drift across half of Dm.
	vals := []string{"a", "a", "a", "b", "c", "d", "e", "f"}
	rel := relation.NewRelation(rm)
	for i, n := 0, 2+rng.Intn(24); i < n; i++ {
		rel.MustAppend(randomMasterTuple(rng, nM, vals))
	}

	sigma := rule.MustNewSet(r, rm)
	for i, n := 0, 1+rng.Intn(5); i < n; i++ {
		xLen := 1 + rng.Intn(2)
		perm := rng.Perm(nR)
		x := perm[:xLen]
		b := perm[xLen]
		xm := make([]int, xLen)
		for j := range xm {
			xm[j] = rng.Intn(nM)
		}
		var pPos []int
		var pCells []pattern.Cell
		for _, p := range rng.Perm(nR)[:rng.Intn(3)] {
			pPos = append(pPos, p)
			cell := pattern.Eq(relation.String(vals[rng.Intn(len(vals))]))
			if rng.Intn(3) == 0 {
				cell = pattern.Neq(cell.Val)
			}
			pCells = append(pCells, cell)
		}
		ru, err := rule.New(fmt.Sprintf("r%d", i), r, rm, x, xm, b, rng.Intn(nM), pattern.MustTuple(pPos, pCells))
		if err != nil {
			continue
		}
		sigma.Add(ru)
	}
	return rel, sigma, vals
}

// checkProbeEquality asserts every probe entry point answers byte-
// identically on the sharded snapshot and the P=1 oracle.
func checkProbeEquality(t *testing.T, ctx string, sharded, oracle *Data, sigma *rule.Set, probe relation.Tuple, zSet relation.AttrSet) {
	t.Helper()
	for _, ru := range sigma.Rules() {
		if got, want := sharded.MatchIDs(ru, probe), oracle.MatchIDs(ru, probe); !eqInts(got, want) {
			t.Fatalf("%s: rule %s MatchIDs = %v, oracle %v", ctx, ru.Name(), got, want)
		}
		gotRHS, gotWitness := sharded.AppendRHSValues(nil, ru, probe)
		wantRHS, wantWitness := oracle.AppendRHSValues(nil, ru, probe)
		if gotWitness != wantWitness {
			t.Fatalf("%s: rule %s witness = %d, oracle %d", ctx, ru.Name(), gotWitness, wantWitness)
		}
		if len(gotRHS) != len(wantRHS) {
			t.Fatalf("%s: rule %s AppendRHSValues = %v, oracle %v", ctx, ru.Name(), gotRHS, wantRHS)
		}
		for i := range gotRHS {
			if !gotRHS[i].Equal(wantRHS[i]) {
				t.Fatalf("%s: rule %s AppendRHSValues = %v, oracle %v", ctx, ru.Name(), gotRHS, wantRHS)
			}
		}
		if got, want := sharded.CompatibleExists(ru, probe, zSet), oracle.CompatibleExists(ru, probe, zSet); got != want {
			t.Fatalf("%s: rule %s CompatibleExists = %v, oracle %v (z=%v)", ctx, ru.Name(), got, want, zSet.Positions())
		}
		if got, want := sharded.PatternSupported(ru), oracle.PatternSupported(ru); got != want {
			t.Fatalf("%s: rule %s PatternSupported = %v, oracle %v", ctx, ru.Name(), got, want)
		}
	}
}

// TestShardedBuildMatchesUnshardedOracle: a parallel sharded build answers
// every probe byte-identically to the unsharded sequential build, for
// random probes, stored tuples, and every validated-attr shape.
func TestShardedBuildMatchesUnshardedOracle(t *testing.T) {
	for seed := 0; seed < 120; seed++ {
		rng := rand.New(rand.NewSource(int64(51_000_000 + seed)))
		rel, sigma, vals := randomShardInstance(rng)
		pinProcs(t, 1)
		oracle := MustNewForRules(rel, sigma, WithShards(1))
		checkTablesAgainstMaps(t, fmt.Sprintf("seed %d oracle", seed), oracle)
		pinProcs(t, 3)
		for _, p := range shardSweep {
			sharded := MustNewForRules(rel, sigma, WithShards(p))
			if sharded.nshards != p {
				t.Fatalf("seed %d: nshards = %d, want %d", seed, sharded.nshards, p)
			}
			checkTablesAgainstMaps(t, fmt.Sprintf("seed %d P=%d", seed, p), sharded)
			probe := make(relation.Tuple, sigma.Schema().Arity())
			for trial := 0; trial < 4; trial++ {
				for i := range probe {
					if rng.Intn(7) == 0 {
						probe[i] = relation.String("zz") // never interned
					} else {
						probe[i] = relation.String(vals[rng.Intn(len(vals))])
					}
				}
				zSet := relation.NewAttrSet(rng.Perm(len(probe))[:rng.Intn(len(probe)+1)]...)
				checkProbeEquality(t, fmt.Sprintf("seed %d P=%d trial %d", seed, p, trial), sharded, oracle, sigma, probe, zSet)
			}
			// Stored tuples probe as guaranteed hits; project them into
			// input-schema shape where arities align.
			if rel.Len() > 0 && sigma.Schema().Arity() == rel.Schema().Arity() {
				tm := rel.Tuple(rng.Intn(rel.Len()))
				zSet := relation.NewAttrSet(rng.Perm(len(tm))[:rng.Intn(len(tm)+1)]...)
				checkProbeEquality(t, fmt.Sprintf("seed %d P=%d stored", seed, p), sharded, oracle, sigma, tm, zSet)
			}
		}
	}
}

// TestShardedDeltaEquivalence drives randomized delta chains at every
// shard count, long enough that shard overlays cross the flatten-at-1/4
// compaction threshold, checking every intermediate snapshot against the
// same-P rebuild oracle (checkEquiv) and the P=1 oracle's probe answers.
func TestShardedDeltaEquivalence(t *testing.T) {
	for _, p := range shardSweep {
		p := p
		t.Run(fmt.Sprintf("P=%d", p), func(t *testing.T) {
			for seed := 0; seed < 12; seed++ {
				rng := rand.New(rand.NewSource(int64(61_000_000 + seed)))
				rel, sigma, vals := randomShardInstance(rng)
				pinProcs(t, 1)
				orc := MustNewForRules(rel.Clone(), sigma, WithShards(1))
				pinProcs(t, 2)
				cur := MustNewForRules(rel, sigma, WithShards(p))
				probe := make(relation.Tuple, sigma.Schema().Arity())
				// 24 deltas on a ≤ 26-tuple relation: overlays repeatedly
				// exceed a quarter of their shard's base, forcing the
				// compaction path of layered.fork on every shard.
				for step := 0; step < 24; step++ {
					adds, deletes := randomDelta(rng, cur.Len(), rel.Schema().Arity(), vals)
					next, err := cur.ApplyDelta(adds, deletes)
					if err != nil {
						t.Fatalf("seed %d step %d: %v", seed, step, err)
					}
					nextOrc, err := orc.ApplyDelta(adds, deletes)
					if err != nil {
						t.Fatalf("seed %d step %d (oracle): %v", seed, step, err)
					}
					ctx := fmt.Sprintf("seed %d step %d P=%d", seed, step, p)
					checkEquiv(t, ctx, next, sigma)
					for trial := 0; trial < 3; trial++ {
						for i := range probe {
							probe[i] = relation.String(vals[rng.Intn(len(vals))])
						}
						zSet := relation.NewAttrSet(rng.Perm(len(probe))[:rng.Intn(len(probe)+1)]...)
						checkProbeEquality(t, ctx, next, nextOrc, sigma, probe, zSet)
					}
					cur, orc = next, nextOrc
				}
			}
		})
	}
}

// forceCompact flattens every shard of every index of d into its table,
// whatever fork would have decided.
func forceCompact(d *Data) {
	for _, idx := range d.indexes() {
		for s := range idx.shards {
			idx.shards[s].layered = layered{frozen: idx.shards[s].compact()}
		}
	}
}

// TestKeyRoutingProperty holds the one-bucket-per-key layout through
// everything that writes it: after a build, after each delta of a random
// program (overlays, and the compactions fork decides on), after compacting
// every shard by force, and after an arena round trip, every key of every
// index — the rules' own and the one-column ones their partial-lhs tests
// read — sits in exactly the shard the router names.
func TestKeyRoutingProperty(t *testing.T) {
	pinProcs(t, 2)
	for _, p := range shardSweep {
		for seed := 0; seed < 12; seed++ {
			rng := rand.New(rand.NewSource(int64(81_000_000 + seed)))
			rel, sigma, vals := randomShardInstance(rng)
			cur := MustNewForRules(rel, sigma, WithShards(p))
			ctx := fmt.Sprintf("seed %d P=%d", seed, p)
			checkRouting(t, ctx+" built", cur)
			for step := 0; step < 24; step++ {
				adds, deletes := randomDelta(rng, cur.Len(), rel.Schema().Arity(), vals)
				next, err := cur.ApplyDelta(adds, deletes)
				if err != nil {
					t.Fatalf("%s step %d: %v", ctx, step, err)
				}
				checkRouting(t, fmt.Sprintf("%s step %d", ctx, step), next)
				cur = next
			}
			forceCompact(cur)
			checkRouting(t, ctx+" compacted", cur)
			loaded := loadArenaOrFatal(t, saveArenaBytes(t, cur, sigma), sigma)
			if loaded.nshards != p {
				t.Fatalf("%s: loaded image has %d shards", ctx, loaded.nshards)
			}
			checkRouting(t, ctx+" loaded", loaded)
		}
	}
}

// TestColumnIndexProperty drives checkEquiv — and with it checkColumnIndexes,
// the map oracle the one-column indexes of condition (c) are held to — through
// everything that writes an index, at P = 1 and P = 4: a build, every delta of
// a random program, every shard compacted by force, and a save → load round
// trip with deltas on the loaded image.
func TestColumnIndexProperty(t *testing.T) {
	pinProcs(t, 2)
	multi := 0
	for _, p := range []int{1, 4} {
		for seed := 0; seed < 12; seed++ {
			rng := rand.New(rand.NewSource(int64(82_000_000 + seed)))
			rel, sigma, vals := randomShardInstance(rng)
			for _, ru := range sigma.Rules() {
				if len(ru.LHSM()) > 1 {
					multi++
				}
			}
			cur := MustNewForRules(rel, sigma, WithShards(p))
			ctx := fmt.Sprintf("seed %d P=%d", seed, p)
			checkEquiv(t, ctx+" built", cur, sigma)
			program := func(ctx string, cur *Data) *Data {
				for step := 0; step < 12; step++ {
					adds, deletes := randomDelta(rng, cur.Len(), rel.Schema().Arity(), vals)
					next, err := cur.ApplyDelta(adds, deletes)
					if err != nil {
						t.Fatalf("%s step %d: %v", ctx, step, err)
					}
					checkEquiv(t, fmt.Sprintf("%s step %d", ctx, step), next, sigma)
					cur = next
				}
				return cur
			}
			cur = program(ctx, cur)
			forceCompact(cur)
			checkEquiv(t, ctx+" compacted", cur, sigma)
			loaded := loadArenaOrFatal(t, saveArenaBytes(t, cur, sigma), sigma)
			checkEquiv(t, ctx+" loaded", loaded, sigma)
			program(ctx+" loaded", loaded)
		}
	}
	if multi < 10 {
		t.Fatalf("only %d multi-column rules over all instances: the property was barely exercised", multi)
	}
}

// TestMemStatsShardInvariant: P does not show in what MemStats counts —
// a key has one bucket, so keys, ids, symbols and exceptions are the same
// numbers at every shard count. Only Shards itself and the byte sizes of the
// tables (slot arrays round up per shard) may differ.
func TestMemStatsShardInvariant(t *testing.T) {
	// 97 fk2 keys of ~20 ids each, one corrupted clone under every even key.
	rel, sigma := shardBenchRelation(2000)
	for fk2 := 0; fk2 < 97; fk2 += 2 {
		clone := rel.Tuple(fk2).Clone()
		clone[0], clone[4] = relation.String(fmt.Sprintf("X%08d", fk2)), relation.String("c2-typo")
		rel.MustAppend(clone)
	}
	counts := func(p int) MemStats {
		ms := MustNewForRules(rel, sigma, WithShards(p)).MemStats()
		if ms.Shards != p {
			t.Fatalf("P=%d: MemStats.Shards = %d", p, ms.Shards)
		}
		ms.Shards, ms.IndexBytes = 0, 0
		return ms
	}
	want := counts(1)
	// Four indexes: the three rules' and the one over fk2 alone, which only
	// pair-c3's partial-lhs test reads.
	if want.IndexIDs != 4*want.Tuples || want.NonUniformBuckets == 0 {
		t.Fatalf("fixture broken: %+v", want)
	}
	for _, p := range shardSweep[1:] {
		if got := counts(p); got != want {
			t.Fatalf("P=%d MemStats = %+v, P=1 %+v", p, got, want)
		}
	}
}

// TestShardedForcedCollision injects a foreign tuple id into the bucket of
// a probe's hash — simulating a uint64 collision in the sharded layout — and
// checks the probe filters it out while still returning every true match in
// ascending-id order.
func TestShardedForcedCollision(t *testing.T) {
	for _, frozen := range []bool{false, true} {
		t.Run(fmt.Sprintf("frozen=%v", frozen), func(t *testing.T) { testShardedForcedCollision(t, frozen) })
	}
}

func testShardedForcedCollision(t *testing.T, frozen bool) {
	r := relation.StringSchema("R", "K", "V")
	rm := relation.StringSchema("Rm", "K", "V")
	ru := rule.MustNew("kv", r, rm, []int{0}, []int{0}, 1, 1, pattern.Empty())
	sigma := rule.MustNewSet(r, rm, ru)
	rel := relation.NewRelation(rm)
	// Many tuples sharing key "k": they differ on V, and still all sit in
	// the one bucket the key routes to.
	for i := 0; i < 12; i++ {
		rel.MustAppend(relation.StringTuple("k", fmt.Sprintf("v%d", i)))
	}
	rel.MustAppend(relation.StringTuple("other", "x")) // id 12: the injected collision
	pinProcs(t, 2)
	dm := MustNewForRules(rel, sigma, WithShards(7))

	probe := relation.StringTuple("k", "dirty")
	h, ok := dm.syms.ProbeTuple(probe, ru.LHS(), nil)
	if !ok {
		t.Fatal("probe must hash")
	}
	idx := dm.indexAt(dm.plan.rules[dm.ruleAt(ru)].index)
	spread := 0
	for s := range idx.shards {
		if len(idx.shards[s].get(h)) > 0 {
			spread++
		}
	}
	if spread != 1 || len(idx.shard(h).get(h)) != 12 {
		t.Fatalf("key \"k\" occupies %d shards, want its 12 ids in the one it routes to", spread)
	}

	want := make([]int, 12)
	for i := range want {
		want[i] = i
	}
	if got := dm.MatchIDs(ru, probe); !eqInts(got, want) {
		t.Fatalf("pre-collision MatchIDs = %v, want %v", got, want)
	}

	// Inject id 12 (projection "other") into the bucket for h.
	sh := idx.shard(h)
	plantBucket(sh, h, append(append([]int(nil), sh.get(h)...), 12), frozen)
	if got := dm.MatchIDs(ru, probe); !eqInts(got, want) {
		t.Fatalf("MatchIDs after injected collisions = %v, want %v", got, want)
	}
	if hasMatch(dm, ru, relation.StringTuple("nope", "")) {
		t.Fatal("foreign key must not match")
	}
}

// TestShardedProbeZeroAllocSingleMatch: a single-match hit — the
// overwhelmingly common probe against key-like master projections —
// allocates nothing when P > 1, as do both miss shapes.
func TestShardedProbeZeroAllocSingleMatch(t *testing.T) {
	r := relation.StringSchema("R", "K", "V", "W")
	rm := relation.StringSchema("Rm", "K", "V", "W")
	ru := rule.MustNew("kv", r, rm, []int{0}, []int{0}, 1, 1, pattern.Empty())
	sigma := rule.MustNewSet(r, rm, ru)
	rel := relation.NewRelation(rm)
	for i := 0; i < 64; i++ {
		rel.MustAppend(relation.StringTuple(fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i), "w"))
	}
	pinProcs(t, 2)
	dm := MustNewForRules(rel, sigma, WithShards(8))

	hit := relation.StringTuple("k17", "dirty", "x")
	missUninterned := relation.StringTuple("nope", "dirty", "x")
	allocs := testing.AllocsPerRun(1000, func() {
		if ids := dm.MatchIDs(ru, hit); len(ids) != 1 {
			t.Fatal("hit must match once")
		}
		if ids := dm.MatchIDs(ru, missUninterned); len(ids) != 0 {
			t.Fatal("miss must not match")
		}
	})
	if allocs != 0 {
		t.Fatalf("sharded single-match probe allocates %.1f objects per run; want 0", allocs)
	}
}

// TestBuildErrorContext pins the typed build-failure contract: schema
// mismatches and bad tuples surface *BuildError matching ErrMasterBuild,
// with the failing tuple's id and key context in the message.
func TestBuildErrorContext(t *testing.T) {
	r := relation.StringSchema("R", "A", "B")
	rm, err := relation.NewSchema("Rm",
		relation.Attribute{Name: "MA", Type: relation.TypeString},
		relation.Attribute{Name: "MB", Type: relation.TypeInt},
	)
	if err != nil {
		t.Fatal(err)
	}
	ru := rule.MustNew("r1", r, rm, []int{0}, []int{0}, 1, 1, pattern.Empty())
	sigma := rule.MustNewSet(r, rm, ru)

	rel := relation.NewRelation(rm)
	rel.MustAppend(relation.Tuple{relation.String("ok"), relation.Int(1)})
	rel.MustAppend(relation.Tuple{relation.String("bad"), relation.String("not-an-int")})
	pinProcs(t, 2)
	_, err = NewForRules(rel, sigma, WithShards(4))
	if err == nil {
		t.Fatal("type-violating tuple must fail the build")
	}
	if !errors.Is(err, ErrMasterBuild) {
		t.Fatalf("build failure must match ErrMasterBuild, got %v", err)
	}
	var be *BuildError
	if !errors.As(err, &be) {
		t.Fatalf("build failure must be a *BuildError, got %T", err)
	}
	if be.TupleID != 1 {
		t.Fatalf("BuildError context = tuple %d, want tuple 1", be.TupleID)
	}
	if !strings.Contains(be.Key, "bad") {
		t.Fatalf("BuildError key %q must carry the tuple's content", be.Key)
	}
	if !strings.Contains(err.Error(), "tuple 1") || !strings.Contains(err.Error(), "key") {
		t.Fatalf("error message %q must name the tuple and its key", err)
	}

	// Schema mismatch: tuple-independent context.
	wrong := relation.NewRelation(relation.StringSchema("Other", "X"))
	_, err = NewForRules(wrong, sigma)
	if !errors.Is(err, ErrMasterBuild) {
		t.Fatalf("schema mismatch must match ErrMasterBuild, got %v", err)
	}

	// Delta validation carries the same context.
	good := relation.NewRelation(rm)
	good.MustAppend(relation.Tuple{relation.String("ok"), relation.Int(1)})
	dm := MustNewForRules(good, sigma, WithShards(2))
	_, err = dm.ApplyDelta([]relation.Tuple{{relation.Int(9), relation.Int(9)}}, nil)
	if !errors.Is(err, ErrMasterBuild) {
		t.Fatalf("delta add type violation must match ErrMasterBuild, got %v", err)
	}
	_, err = dm.ApplyDelta(nil, []int{5})
	if !errors.Is(err, ErrMasterBuild) {
		t.Fatalf("delta delete out of range must match ErrMasterBuild, got %v", err)
	}
}
