package master

// The uniform-bucket equivalence property (uniform.go): the O(1) value
// probe, AppendRHSValues, answers exactly what a scan over MatchIDs answers
// (values, and the smallest applicable id as witness) — into a fresh list
// and into one already holding another rule's values, where it appends
// only the values the list lacks — and the incrementally maintained
// exception tables equal the ones rebuilt from the buckets, at every epoch
// of random delta programs, for P ∈ {1, 2, 7, 16}, on four lineages:
// heap-built, arena-loaded, WAL-recovered and follower.
//
// The masters mix clean functional structure (multi-id buckets that ARE
// uniform, so the fast path is exercised), corrupted clones in the style
// of datagen.UpdateStorm (same key, different rhs: listed buckets) and
// injected hash collisions: tuple 0 is planted at the head of foreign
// buckets, the worst case for a probe that trusts bucket[0]. MatchIDs
// verifies every candidate and never reads the tables, which is what makes
// it the oracle.

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/pattern"
	"repro/internal/relation"
	"repro/internal/rule"
	"repro/internal/wal"
)

// uniformWorld generates master tuples over Rm(M0..M4): M1 is a function
// of M0 and M3 of (M0, M2) — the rules r0 and r1 below are functions on a
// clean master — while M2 and M4 are drawn at random.
type uniformWorld struct {
	rng   *rand.Rand
	sigma *rule.Set
	rm    *relation.Schema
}

func newUniformWorld(rng *rand.Rand) *uniformWorld {
	r := relation.StringSchema("R", "A0", "A1", "A2", "A3", "A4")
	rm := relation.StringSchema("Rm", "M0", "M1", "M2", "M3", "M4")
	sigma := rule.MustNewSet(r, rm,
		rule.MustNew("r0", r, rm, []int{0}, []int{0}, 1, 1, pattern.Empty()),
		rule.MustNew("r1", r, rm, []int{0, 2}, []int{0, 2}, 3, 3, pattern.Empty()),
		rule.MustNew("r2", r, rm, []int{2}, []int{2}, 4, 4, pattern.Empty()),
		rule.MustNew("r3", r, rm, []int{0}, []int{0}, 4, 4,
			pattern.MustTuple([]int{0}, []pattern.Cell{pattern.Neq(relation.String("k0"))})),
	)
	return &uniformWorld{rng: rng, sigma: sigma, rm: rm}
}

func (w *uniformWorld) clean() relation.Tuple {
	k, g := w.rng.Intn(6), w.rng.Intn(3)
	return relation.StringTuple(
		fmt.Sprintf("k%d", k), fmt.Sprintf("name-of-k%d", k), fmt.Sprintf("g%d", g),
		fmt.Sprintf("avg-%d-%d", k, g), fmt.Sprintf("x%d", w.rng.Intn(2)))
}

// corrupted clones a live tuple and perturbs one cell with another live
// tuple's value: same key with a different rhs, or a new key altogether.
func (w *uniformWorld) corrupted(live []relation.Tuple) relation.Tuple {
	t := live[w.rng.Intn(len(live))].Clone()
	c := w.rng.Intn(len(t))
	t[c] = live[w.rng.Intn(len(live))][c]
	if w.rng.Intn(3) == 0 {
		t[c] = relation.String("typo")
	}
	return t
}

func (w *uniformWorld) relation(n int, dirty bool) *relation.Relation {
	rel := relation.NewRelation(w.rm)
	for i := 0; i < n; i++ {
		if dirty && i > 0 && w.rng.Intn(5) == 0 {
			rel.MustAppend(w.corrupted(tuplesOf(rel)))
		} else {
			rel.MustAppend(w.clean())
		}
	}
	return rel
}

// delta draws adds (clean and corrupted) and deletes that never touch id
// 0, the tuple the collision injection plants in foreign buckets.
func (w *uniformWorld) delta(live []relation.Tuple) (adds []relation.Tuple, deletes []int) {
	for i, n := 0, w.rng.Intn(4); i < n; i++ {
		if w.rng.Intn(2) == 0 {
			adds = append(adds, w.clean())
		} else {
			adds = append(adds, w.corrupted(live))
		}
	}
	for _, id := range w.rng.Perm(len(live))[:w.rng.Intn(min(4, len(live)))] {
		if id != 0 {
			deletes = append(deletes, id)
		}
	}
	if len(adds) == 0 && len(deletes) == 0 {
		adds = append(adds, w.clean())
	}
	return adds, deletes
}

// injectCollisions plants tuple 0 at the head of a few foreign buckets —
// what a 64-bit hash collision looks like to a probe — and re-derives the
// affected shards' exception tables. Deltas that leave id 0 alone keep the
// planted ids valid.
func injectCollisions(rng *rand.Rand, d *Data) (planted int) {
	for _, idx := range d.indexes() {
		for s := range idx.shards {
			type bucket struct {
				h   uint64
				ids []int
			}
			var foreign []bucket
			idx.shards[s].each(func(h uint64, ids []int) {
				if !d.Tuple(0).ProjectMatches(idx.xm, d.Tuple(ids[0]), idx.xm) {
					foreign = append(foreign, bucket{h, ids})
				}
			})
			// each iterates maps: sort for a seed-stable choice.
			slices.SortFunc(foreign, func(a, b bucket) int { return a.ids[0] - b.ids[0] })
			for _, b := range foreign {
				if planted < 2*len(d.plan.indexes) && rng.Intn(3) == 0 {
					plantBucket(&idx.shards[s], b.h, append([]int{0}, b.ids...), planted%2 == 1)
					planted++
				}
			}
			idx.rebuildExceptions(s, &d.rows)
		}
	}
	return planted
}

// rhsValues is the value probe into a fresh list.
func rhsValues(d *Data, ru *rule.Rule, t relation.Tuple) []relation.Value {
	vs, _ := d.AppendRHSValues(nil, ru, t)
	return vs
}

// scanOracle answers a value probe by enumeration: the applicable ids in
// ascending order, their rhs values appended to dst in first-seen order
// when dst does not hold them yet, and the smallest id.
func scanOracle(d *Data, ru *rule.Rule, t relation.Tuple, dst []relation.Value) (values []relation.Value, first int) {
	first, values = -1, dst
	if !ru.MatchesPattern(t) {
		return values, -1
	}
	for _, id := range d.MatchIDs(ru, t) {
		if first < 0 {
			first = id
		}
		v := d.Tuple(id)[ru.RHSM()]
		dup := false
		for _, w := range values {
			dup = dup || w.Equal(v)
		}
		if !dup {
			values = append(values, v)
		}
	}
	return values, first
}

// checkUniformProbes holds every value probe of every rule to the scan
// oracle: on each stored tuple's own key, on keys that miss, and on keys
// carrying values never interned. It returns how many probes into a
// pre-filled list met a value the list already held.
func checkUniformProbes(t *testing.T, ctx string, d *Data, rules []*rule.Rule, rng *rand.Rand) (overlaps int) {
	t.Helper()
	arity := rules[0].Schema().Arity()
	probes := make([]relation.Tuple, 0, d.Len()+4)
	for id := 0; id < d.Len(); id++ {
		p := make(relation.Tuple, arity)
		for c := range p {
			p[c] = d.Tuple(id)[c] // R and Rm line up column for column
		}
		probes = append(probes, p)
	}
	for i := 0; i < 4 && d.Len() > 0; i++ {
		p := probes[rng.Intn(d.Len())].Clone()
		p[rng.Intn(arity)] = relation.String([]string{"k1", "g0", "never-seen"}[rng.Intn(3)])
		probes = append(probes, p)
	}
	for i, ru := range rules {
		// The list other's values pre-fill: r2 and r3 share their rhs, so
		// each of them meets values it must not append twice.
		other := rules[(i+len(rules)-1)%len(rules)]
		for _, p := range probes {
			want, first := scanOracle(d, ru, p, nil)
			got, witness := d.AppendRHSValues(nil, ru, p)
			if !relation.Tuple(got).Equal(want) || witness != first {
				t.Fatalf("%s: rule %s probe %v: AppendRHSValues = %v, %d; scan oracle %v, %d",
					ctx, ru.Name(), p, got, witness, want, first)
			}
			prefix, _ := scanOracle(d, other, p, nil)
			wantAll, _ := scanOracle(d, ru, p, slices.Clone(prefix))
			gotAll, witnessAll := d.AppendRHSValues(slices.Clone(prefix), ru, p)
			if !relation.Tuple(gotAll).Equal(wantAll) || witnessAll != first {
				t.Fatalf("%s: rule %s probe %v into %v: AppendRHSValues = %v, %d; scan oracle %v, %d",
					ctx, ru.Name(), p, prefix, gotAll, witnessAll, wantAll, first)
			}
			if len(gotAll)-len(prefix) < len(got) {
				overlaps++
			}
			// The head-of-bucket rule: the witness is the smallest id the
			// enumerating probe returns, and carries the first value.
			if ids := d.MatchIDs(ru, p); ru.MatchesPattern(p) && (len(ids) > 0) != (witness >= 0) ||
				witness >= 0 && (witness != ids[0] || !d.Cell(witness, ru.RHSM()).Equal(got[0])) {
				t.Fatalf("%s: rule %s probe %v: witness %d with values %v; MatchIDs %v", ctx, ru.Name(), p, witness, got, ids)
			}
		}
	}
	return overlaps
}

// checkExceptionsRebuilt asserts every exception table equals the one
// rebuildExceptions derives from the snapshot's own buckets.
func checkExceptionsRebuilt(t *testing.T, ctx string, d *Data) {
	t.Helper()
	for _, idx := range d.indexes() {
		fresh := idx
		fresh.shards = slices.Clone(idx.shards)
		for s := range idx.shards {
			fresh.rebuildExceptions(s, &d.rows)
			got, want := idx.shards[s].exc, fresh.shards[s].exc
			if len(got) != len(want) {
				t.Fatalf("%s: index %v shard %d: maintained exceptions %v, rebuilt %v", ctx, idx.xm, s, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s: index %v shard %d: maintained exceptions %v, rebuilt %v", ctx, idx.xm, s, got, want)
				}
			}
		}
	}
}

func TestUniformBucketEquivalenceProperty(t *testing.T) {
	pinProcs(t, 2)
	seeds := 12
	if testing.Short() {
		seeds = 3
	}
	var planted, listed, uniformMulti, rebased, overlaps int
	for seed := 0; seed < seeds; seed++ {
		for _, p := range shardSweep {
			rng := rand.New(rand.NewSource(int64(71_000_000 + 100*seed + p)))
			w := newUniformWorld(rng)
			rel := w.relation(8+rng.Intn(40), seed%3 != 0)
			ctx := fmt.Sprintf("seed %d P=%d", seed, p)
			rules := w.sigma.Rules()

			build := func() (*Data, error) {
				d, err := NewForRules(rel, w.sigma, WithShards(p))
				if err == nil && seed%2 == 0 {
					planted += injectCollisions(rand.New(rand.NewSource(int64(seed))), d)
				}
				return d, err
			}
			heap, err := build()
			if err != nil {
				t.Fatal(err)
			}
			arena := loadArenaOrFatal(t, saveArenaBytes(t, heap, w.sigma), w.sigma)
			dir := t.TempDir()
			opts := DurableOptions{Sync: wal.SyncNever, SegmentBytes: 512, CheckpointEvery: 3}
			dv, err := OpenDurable(dir, build, w.sigma, opts)
			if err != nil {
				t.Fatal(err)
			}
			img, _, err := dv.CheckpointImage()
			if err != nil {
				t.Fatal(err)
			}
			follower := newReplica(loadArenaOrFatal(t, img, w.sigma), 4)

			check := func(ctx string, d *Data) {
				t.Helper()
				checkExceptionsRebuilt(t, ctx, d)
				overlaps += checkUniformProbes(t, ctx, d, rules, rng)
				for _, idx := range d.indexes() {
					for s := range idx.shards {
						listed += len(idx.shards[s].exc)
						idx.shards[s].each(func(h uint64, ids []int) {
							if len(ids) > 1 && idx.shards[s].exc.mask(h) == 0 {
								uniformMulti++
							}
						})
					}
				}
			}
			check(ctx+" heap epoch 0", heap)
			check(ctx+" arena epoch 0", arena)

			const deltas = 10
			for step := 1; step <= deltas; step++ {
				adds, deletes := w.delta(tuplesOf(heap.Relation()))
				sctx := fmt.Sprintf("%s epoch %d", ctx, step)
				if heap, err = heap.ApplyDelta(adds, deletes); err != nil {
					t.Fatalf("%s: heap ApplyDelta: %v", sctx, err)
				}
				if arena, err = arena.ApplyDelta(adds, deletes); err != nil {
					t.Fatalf("%s: arena ApplyDelta: %v", sctx, err)
				}
				if _, err = dv.Apply(adds, deletes); err != nil {
					t.Fatalf("%s: durable Apply: %v", sctx, err)
				}
				dv.waitCheckpoint() // so that the tail below meets every truncation
				// The follower tails the leader's log; when a checkpoint has
				// truncated the epoch it needs, it rebases onto the image.
				_, err := dv.TailWAL(follower.Epoch(), func(rec wal.Record) error {
					_, aerr := follower.ApplyRecord(rec)
					return aerr
				})
				if errors.Is(err, wal.ErrTruncated) || err == nil && follower.Epoch() < uint64(step) {
					img, _, ierr := dv.CheckpointImage()
					if ierr != nil {
						t.Fatal(ierr)
					}
					err = follower.Reset(loadArenaOrFatal(t, img, w.sigma))
					rebased++
				}
				if err != nil {
					t.Fatalf("%s: follower tail: %v", sctx, err)
				}
				if follower.Epoch() != uint64(step) {
					t.Fatalf("%s: follower at epoch %d", sctx, follower.Epoch())
				}
				check(sctx+" heap", heap)
				check(sctx+" arena", arena)
				check(sctx+" durable", dv.Current())
				check(sctx+" follower", follower.Current())
				if rng.Intn(4) == 0 { // re-freeze: overlays above an arena, reloaded
					arena = loadArenaOrFatal(t, saveArenaBytes(t, arena, w.sigma), w.sigma)
					check(sctx+" arena reloaded", arena)
				}
			}

			// Crash-free reopen: checkpoint image plus WAL tail replay.
			if err := dv.Close(); err != nil {
				t.Fatal(err)
			}
			dv, err = OpenDurable(dir, build, w.sigma, opts)
			if err != nil {
				t.Fatalf("%s: recovery: %v", ctx, err)
			}
			if dv.Epoch() != deltas {
				t.Fatalf("%s: recovered at epoch %d, want %d", ctx, dv.Epoch(), deltas)
			}
			check(ctx+" recovered", dv.Current())
			adds, deletes := w.delta(tuplesOf(dv.Current().Relation()))
			next, err := dv.Apply(adds, deletes)
			if err != nil {
				t.Fatalf("%s: Apply after recovery: %v", ctx, err)
			}
			check(ctx+" recovered +1", next)
			if err := dv.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
	// The suite means nothing unless all three bucket kinds occurred, and
	// some probe into a pre-filled list met a value it already held.
	if planted == 0 || listed == 0 || uniformMulti == 0 || rebased == 0 || overlaps == 0 {
		t.Fatalf("fixture too tame: %d planted collisions, %d listed buckets, %d uniform multi-id buckets, %d follower rebases, %d overlapping appends",
			planted, listed, uniformMulti, rebased, overlaps)
	}
}

// TestExceptionTableCopyOnWrite pins the immutability the snapshots rely
// on: with never rewrites the receiver's backing array.
func TestExceptionTableCopyOnWrite(t *testing.T) {
	var e exceptions
	for _, h := range []uint64{50, 10, 30} {
		e = e.with(h, h)
	}
	before := append(exceptions(nil), e...)
	e2 := e.with(20, 7).with(30, 0).with(50, collided).with(99, 0)
	for i := range before {
		if e[i] != before[i] {
			t.Fatalf("with mutated its receiver: %v, was %v", e, before)
		}
	}
	want := exceptions{{10, 10}, {20, 7}, {50, collided}}
	if len(e2) != len(want) {
		t.Fatalf("with chain = %v, want %v", e2, want)
	}
	for i := range want {
		if e2[i] != want[i] || e2.mask(want[i].h) != want[i].mask {
			t.Fatalf("with chain = %v, want %v", e2, want)
		}
	}
	if e2.mask(30) != 0 || e2.mask(99) != 0 {
		t.Fatalf("unlisted keys must read 0: %v", e2)
	}
}
