package master

// The delta-equivalence property: EVERY intermediate snapshot of a
// randomized delta sequence — adds, deletes, mixed batches, including
// sequences that push one-column buckets across half of Dm in both
// directions — is deep-equal to a from-scratch
// NewForRules on the equivalent materialized relation (checkEquiv), and
// its probes agree with the naive Dm scan. Run the package under -race to
// additionally validate the snapshot-isolation contract via the
// concurrent-probe tests below.

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/authtree"
	"repro/internal/pattern"
	"repro/internal/relation"
	"repro/internal/rule"
)

// randomDeltaInstance builds a randomized (Σ, Dm) like the compatibility
// property tests, but returns the pieces needed to keep generating
// tuples: the schemas and the value pool.
func randomDeltaInstance(rng *rand.Rand) (*Data, *rule.Set, *relation.Schema, []string) {
	return sizedDeltaInstance(rng, 0)
}

// sizedDeltaInstance is randomDeltaInstance over size master tuples, 2–11
// when size is 0. The pool has four distinct values, so at 3,000 tuples every
// bucket of a one-column index holds 500 or 1,500 ids: lists of many chunks,
// where the default instance never fills one.
func sizedDeltaInstance(rng *rand.Rand, size int) (*Data, *rule.Set, *relation.Schema, []string) {
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

	// A skewed pool: "a" dominates, so one-column buckets routinely cover more
	// than half of Dm and deltas move them across that line.
	vals := []string{"a", "a", "a", "b", "c", "d"}
	rel := relation.NewRelation(rm)
	if size == 0 {
		size = 2 + rng.Intn(10)
	}
	for i := 0; i < size; i++ {
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
	return MustNewForRules(rel, sigma), sigma, rm, vals
}

func randomMasterTuple(rng *rand.Rand, arity int, vals []string) relation.Tuple {
	tup := make(relation.Tuple, arity)
	for j := range tup {
		tup[j] = relation.String(vals[rng.Intn(len(vals))])
	}
	return tup
}

// randomDelta draws a batch of adds and unique deletes against size n.
func randomDelta(rng *rand.Rand, n, arity int, vals []string) (adds []relation.Tuple, deletes []int) {
	nAdd := rng.Intn(4)
	nDel := rng.Intn(4)
	if nAdd == 0 && nDel == 0 {
		nAdd = 1
	}
	if nDel > n {
		nDel = n
	}
	for i := 0; i < nAdd; i++ {
		adds = append(adds, randomMasterTuple(rng, arity, vals))
	}
	deletes = append(deletes, rng.Perm(n)[:nDel]...)
	return adds, deletes
}

// TestDeltaEquivalenceProperty applies 1000 randomized deltas across many
// randomized (Σ, Dm) instances and checks every intermediate snapshot
// against the rebuild oracle plus the naive-scan probe oracle.
func TestDeltaEquivalenceProperty(t *testing.T) {
	const totalIterations = 1000
	const deltasPerInstance = 10
	iter := 0
	for seed := 0; iter < totalIterations; seed++ {
		rng := rand.New(rand.NewSource(int64(21_000_000 + seed)))
		cur, sigma, rm, vals := randomDeltaInstance(rng)
		shadow := tuplesOf(cur.Relation())
		probe := make(relation.Tuple, sigma.Schema().Arity())
		for step := 0; step < deltasPerInstance && iter < totalIterations; step++ {
			adds, deletes := randomDelta(rng, cur.Len(), rm.Arity(), vals)
			next, err := cur.ApplyDelta(adds, deletes)
			if err != nil {
				t.Fatalf("seed %d step %d: ApplyDelta: %v", seed, step, err)
			}
			iter++
			ctx := fmt.Sprintf("seed %d step %d", seed, step)

			// The materialized relation follows the contract semantics.
			shadow = shadowApply(shadow, adds, deletes)
			if next.Len() != len(shadow) {
				t.Fatalf("%s: snapshot length %d, shadow %d", ctx, next.Len(), len(shadow))
			}
			for i, tm := range shadow {
				if !next.Tuple(i).Equal(tm) {
					t.Fatalf("%s: tuple %d = %v, shadow %v", ctx, i, next.Tuple(i), tm)
				}
			}

			// Structural deep-equality against the from-scratch rebuild.
			checkEquiv(t, ctx, next, sigma)

			// Probe-level agreement with the naive scan on random tuples,
			// as the walked buckets drift across half of Dm.
			for trial := 0; trial < 3; trial++ {
				for i := range probe {
					probe[i] = relation.String(vals[rng.Intn(len(vals))])
				}
				zSet := relation.NewAttrSet(rng.Perm(len(probe))[:rng.Intn(len(probe)+1)]...)
				for _, ru := range sigma.Rules() {
					if got, want := next.CompatibleExists(ru, probe, zSet), next.compatibleScan(ru, probe, zSet); got != want {
						t.Fatalf("%s: rule %s CompatibleExists=%v scan=%v (z=%v)", ctx, ru.Name(), got, want, zSet.Positions())
					}
				}
			}
			cur = next
		}
	}
}

// TestDeltaThresholdCrossing drives one bucket across half of Dm in both
// directions through deltas alone, and holds the walk to the scan on every
// side, a never-interned value included.
func TestDeltaThresholdCrossing(t *testing.T) {
	r := relation.StringSchema("R", "A", "B", "C")
	rm := relation.StringSchema("Rm", "MA", "MB", "MC")
	// lhs (A, B): Z = {A} partially validates, probing A's one-column index.
	ru := rule.MustNew("deg", r, rm, []int{0, 1}, []int{0, 1}, 2, 2, pattern.Empty())
	sigma := rule.MustNewSet(r, rm, ru)
	rel := relation.NewRelation(rm)
	for i := 0; i < 4; i++ {
		rel.MustAppend(relation.StringTuple("same", fmt.Sprintf("b%d", i), fmt.Sprintf("c%d", i)))
	}
	for i := 0; i < 12; i++ {
		rel.MustAppend(relation.StringTuple(fmt.Sprintf("u%d", i), fmt.Sprintf("ub%d", i), fmt.Sprintf("uc%d", i)))
	}
	cur := MustNewForRules(rel, sigma)

	tup := relation.StringTuple("same", "b1", "x")
	miss := relation.StringTuple("same", "nope", "x")
	zSet := relation.NewAttrSet(0)
	check := func(ctx string, d *Data, want bool) {
		t.Helper()
		if got := checkCompatible(t, ctx, d, ru, tup, zSet); got != want {
			t.Fatalf("%s: found %v, want %v", ctx, got, want)
		}
		if checkCompatible(t, ctx+", never-interned value", d, ru, miss, relation.NewAttrSet(0, 1)) {
			t.Fatalf("%s: a never-interned value found a compatible tuple", ctx)
		}
	}
	check("4/16", cur, true)

	// Grow "same" to 12/16, past half of Dm.
	var adds []relation.Tuple
	for i := 4; i < 12; i++ {
		adds = append(adds, relation.StringTuple("same", fmt.Sprintf("b%d", i), fmt.Sprintf("c%d", i)))
	}
	grown, err := cur.ApplyDelta(adds, []int{4, 5, 6, 7, 8, 9, 10, 11})
	if err != nil {
		t.Fatal(err)
	}
	checkEquiv(t, "grown", grown, sigma)
	check("12/16", grown, true)

	// Shrink back below half through deletes alone: grown holds "same" at
	// ids {0..3, 8..15} (the swap-removes moved u8..u11 into slots 4..7);
	// dropping ten of them leaves 2/6, and b1's tuple is gone.
	shrunk, err := grown.ApplyDelta(nil, []int{0, 1, 2, 3, 8, 9, 10, 11, 12, 13})
	if err != nil {
		t.Fatal(err)
	}
	checkEquiv(t, "shrunk", shrunk, sigma)
	check("2/6", shrunk, true)
}

// TestSnapshotIsolationUnderConcurrentProbes hammers pinned snapshots
// from probe goroutines while the main goroutine publishes deltas through
// a Versioned handle. Under -race this validates the isolation contract:
// probes never synchronize with ApplyDelta and never observe torn state;
// the test itself validates pinned answers stay byte-stable across
// publishes.
func TestSnapshotIsolationUnderConcurrentProbes(t *testing.T) {
	rng := rand.New(rand.NewSource(31_000_000))
	cur, sigma, rm, vals := randomDeltaInstance(rng)
	// Ensure a healthy starting size.
	var seedAdds []relation.Tuple
	for i := 0; i < 24; i++ {
		seedAdds = append(seedAdds, randomMasterTuple(rng, rm.Arity(), vals))
	}
	start, err := cur.ApplyDelta(seedAdds, nil)
	if err != nil {
		t.Fatal(err)
	}
	v := NewVersioned(start)

	const probers = 4
	const rounds = 200
	var wg sync.WaitGroup
	errc := make(chan error, probers)
	for w := 0; w < probers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			prng := rand.New(rand.NewSource(int64(41_000_000 + w)))
			probe := make(relation.Tuple, sigma.Schema().Arity())
			for r := 0; r < rounds; r++ {
				snap := v.Current() // pin
				for i := range probe {
					probe[i] = relation.String(vals[prng.Intn(len(vals))])
				}
				zSet := relation.NewAttrSet(prng.Perm(len(probe))[:prng.Intn(len(probe)+1)]...)
				for _, ru := range sigma.Rules() {
					// Two reads of everything against the same pinned
					// snapshot must agree even while deltas publish.
					ids1 := append([]int(nil), snap.MatchIDs(ru, probe)...)
					ce1 := snap.CompatibleExists(ru, probe, zSet)
					rv1 := rhsValues(snap, ru, probe)
					ids2 := snap.MatchIDs(ru, probe)
					ce2 := snap.CompatibleExists(ru, probe, zSet)
					rv2 := rhsValues(snap, ru, probe)
					if !eqInts(ids1, ids2) || ce1 != ce2 || len(rv1) != len(rv2) {
						errc <- fmt.Errorf("worker %d round %d rule %s: pinned snapshot answers drifted", w, r, ru.Name())
						return
					}
				}
			}
		}(w)
	}

	for i := 0; i < 60; i++ {
		adds, deletes := randomDelta(rng, v.Current().Len(), rm.Arity(), vals)
		if _, err := v.Apply(adds, deletes); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
	}
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	checkEquiv(t, "final head", v.Current(), sigma)
}

// TestSnapshotBranching derives TWO children from one parent, over and over
// across a growing pool of snapshots, while probe goroutines hold the root:
// every container a delta edits is shared structure (chunks of headers, trie
// paths of overlays and symbols, Merkle spines), so a
// write that leaked through the sharing would change a sibling, the parent,
// or the root under the probers' feet. Each child must equal its own shadow
// relation and the rebuild over it, and the parent must still equal its own,
// after both derivations; -race watches the probers.
func TestSnapshotBranching(t *testing.T) {
	rng := rand.New(rand.NewSource(46_000_001))
	cur, sigma, rm, vals := randomDeltaInstance(rng)
	cur.Authenticate()
	// A pool wide enough, and a relation long enough, that headers span
	// several chunks and the tries several levels.
	vals = append([]string(nil), vals...)
	for i := 0; i < 150; i++ {
		vals = append(vals, fmt.Sprintf("v%d", i))
	}
	var seedAdds []relation.Tuple
	for i := 0; i < 400; i++ {
		seedAdds = append(seedAdds, randomMasterTuple(rng, rm.Arity(), vals))
	}
	root, err := cur.ApplyDelta(seedAdds, nil)
	if err != nil {
		t.Fatal(err)
	}

	type version struct {
		d      *Data
		shadow []relation.Tuple
	}
	check := func(ctx string, v *version) {
		t.Helper()
		checkState(t, ctx, v.d, v.shadow)
		checkEquiv(t, ctx, v.d, sigma)
		rel, err := relation.FromTuples(rm, v.shadow)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := mustRoot(t, v.d), authtree.Build(rel).Root(); got != want {
			t.Fatalf("%s: root %s, rebuild over its tuples %s", ctx, got, want)
		}
	}
	pool := []*version{{root, tuplesOf(root.Relation())}}
	check("root", pool[0])

	// Probers pin the root and hold its answers to the ones it gave before
	// anything was derived from it.
	probes := make([]relation.Tuple, 32)
	for i := range probes {
		probes[i] = make(relation.Tuple, sigma.Schema().Arity())
		for j := range probes[i] {
			probes[i][j] = relation.String(vals[rng.Intn(len(vals))])
		}
	}
	zSet := relation.NewAttrSet(0)
	answer := func() (out []string) {
		for _, p := range probes {
			for _, ru := range sigma.Rules() {
				out = append(out, fmt.Sprint(root.MatchIDs(ru, p), rhsValues(root, ru, p), root.CompatibleExists(ru, p, zSet)))
			}
		}
		return out
	}
	want := answer()
	stop := make(chan struct{})
	var probers sync.WaitGroup
	for w := 0; w < 3; w++ {
		probers.Add(1)
		go func() {
			defer probers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if got := answer(); !slices.Equal(got, want) {
					t.Error("the root's answers changed while snapshots were derived from it")
					return
				}
			}
		}()
	}

	for step := 0; step < 30; step++ {
		parent := pool[rng.Intn(len(pool))]
		var kids [2]*version
		for c := range kids {
			var adds []relation.Tuple
			for i := rng.Intn(9); i >= 0; i-- {
				adds = append(adds, randomMasterTuple(rng, rm.Arity(), vals))
			}
			adds[0][0] = relation.String(fmt.Sprintf("fresh-%d-%d", step, c)) // a symbol only this branch interns
			deletes := rng.Perm(parent.d.Len())[:rng.Intn(4)]
			next, err := parent.d.ApplyDelta(adds, deletes)
			if err != nil {
				t.Fatalf("step %d child %d: %v", step, c, err)
			}
			kids[c] = &version{next, shadowApply(parent.shadow, adds, deletes)}
		}
		check(fmt.Sprintf("step %d parent", step), parent)
		check(fmt.Sprintf("step %d first child", step), kids[0])
		check(fmt.Sprintf("step %d second child", step), kids[1])
		pool = append(pool, kids[:]...)
	}
	check("root after every derivation", pool[0])
	close(stop)
	probers.Wait()
}

// overlayChunks reports, over every overlay entry of d, how many hold more
// than one chunk and how many chunks a delta wrote short of maxChunk.
func overlayChunks(d *Data) (multi, short int) {
	for _, idx := range d.indexes() {
		for s := range idx.shards {
			for _, tab := range idx.shards[s].over.All() {
				if len(tab) > 1 {
					multi++
				}
				for _, c := range tab {
					if len(c) < maxChunk {
						short++
					}
				}
			}
		}
	}
	return multi, short
}

// TestLongListDeltaProperty is the delta-vs-rebuild property over id lists
// of many chunks: 3,000 tuples on four values, deltas of up to 40 adds and 80
// deletes drawn from a window of ids that slides from the front of the
// relation — so the first chunks run dry and merge while swap-remove renames
// carry the last chunk's ids into full ones, which split, and appends fill
// the last chunk and start new ones (TestEditIDsModel counts those shapes one
// by one). Every snapshot equals its shadow relation and the rebuild over it.
func TestLongListDeltaProperty(t *testing.T) {
	for seed := 0; seed < 2; seed++ {
		rng := rand.New(rand.NewSource(int64(47_000_000 + seed)))
		cur, sigma, rm, vals := sizedDeltaInstance(rng, 3_000)
		cur.Authenticate()
		shadow := tuplesOf(cur.Relation())
		for step := 0; step < 12; step++ {
			var adds []relation.Tuple
			for i := rng.Intn(41); i > 0; i-- {
				adds = append(adds, randomMasterTuple(rng, rm.Arity(), vals))
			}
			window := min(cur.Len(), 150+60*step)
			deletes := rng.Perm(window)[:rng.Intn(min(window, 80)+1)]
			if step%6 == 5 {
				adds = nil // a net-shrinking delta: renames only
			}
			next, err := cur.ApplyDelta(adds, deletes)
			if err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			shadow = shadowApply(shadow, adds, deletes)
			ctx := fmt.Sprintf("seed %d step %d", seed, step)
			checkState(t, ctx, next, shadow)
			checkEquiv(t, ctx, next, sigma)
			cur = next
		}
		if multi, short := overlayChunks(cur); multi == 0 || short == 0 {
			t.Fatalf("seed %d: %d overlay lists of several chunks, %d chunks written by deltas: the lists never left one chunk", seed, multi, short)
		}
		checkEquiv(t, fmt.Sprintf("seed %d reloaded", seed), loadArenaOrFatal(t, saveArenaBytes(t, cur, sigma), sigma), sigma)
	}
}

// TestLongListBranching: two children of one parent edit the same long lists
// at once, on their own goroutines — every tuple either adds lands on one of
// four values, so both append to, rename within and unindex from the chunks
// the parent and the other child are reading. Neither sees the other's ids
// and the parent sees neither: each equals its own shadow relation and the
// rebuild over it, and so does a grandchild of each. -race watches the shared
// chunks and chunk tables.
func TestLongListBranching(t *testing.T) {
	rng := rand.New(rand.NewSource(48_000_001))
	parent, sigma, rm, vals := sizedDeltaInstance(rng, 3_000)
	// The parent is itself delta-derived, so its long lists are overlay
	// entries — chunk tables its children share — not only frozen spans.
	seedAdds := make([]relation.Tuple, 300)
	for i := range seedAdds {
		seedAdds[i] = randomMasterTuple(rng, rm.Arity(), vals)
	}
	parent, err := parent.ApplyDelta(seedAdds, rng.Perm(parent.Len())[:200])
	if err != nil {
		t.Fatal(err)
	}
	parentShadow := tuplesOf(parent.Relation())

	type branch struct {
		adds    [2][]relation.Tuple
		deletes [2][]int
		d       [2]*Data
	}
	var kids [2]branch
	for c := range kids {
		for g := range kids[c].adds {
			for i := 0; i < 60+30*c; i++ {
				kids[c].adds[g] = append(kids[c].adds[g], randomMasterTuple(rng, rm.Arity(), vals))
			}
			kids[c].deletes[g] = rng.Perm(parent.Len() - 100)[:50+20*c]
		}
	}
	var wg sync.WaitGroup
	for c := range kids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cur := parent
			for g := range kids[c].adds {
				next, err := cur.ApplyDelta(kids[c].adds[g], kids[c].deletes[g])
				if err != nil {
					t.Errorf("child %d generation %d: %v", c, g, err)
					return
				}
				kids[c].d[g], cur = next, next
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	checkState(t, "parent after its children", parent, parentShadow)
	checkEquiv(t, "parent after its children", parent, sigma)
	for c := range kids {
		shadow := parentShadow
		for g := range kids[c].adds {
			shadow = shadowApply(shadow, kids[c].adds[g], kids[c].deletes[g])
			ctx := fmt.Sprintf("child %d generation %d", c, g)
			checkState(t, ctx, kids[c].d[g], shadow)
			checkEquiv(t, ctx, kids[c].d[g], sigma)
		}
	}
	if multi, _ := overlayChunks(kids[0].d[1]); multi == 0 {
		t.Fatal("the children's lists never left one chunk")
	}
}

// TestApplyDeltaAllocScaling pins "a delta costs the delta": the same
// 10-op delta (8 adds, 2 deletes) allocates at |Dm| = 60k at most 1.6× the
// bytes it allocates at 6k (measured: 48 KB and 71 KB, 1.47×). What may still
// grow with |Dm| is the chunk tables; copying whole containers per delta
// made it 9.5×. This master's longest id list is ~70 ids; what a delta costs
// on lists of thousands is TestStormHeapBudget's and
// BenchmarkApplyDeltaChain/hosp's to hold.
func TestApplyDeltaAllocScaling(t *testing.T) {
	pinProcs(t, 1)
	perDelta := func(n int) float64 {
		rel, sigma := benchMasterRelation(n)
		d0 := MustNewForRules(rel, sigma, WithShards(1))
		rng := rand.New(rand.NewSource(7))
		var adds []relation.Tuple
		for i := 0; i < 8; i++ {
			adds = append(adds, benchMasterTuple(rng, n+i))
		}
		deletes := []int{n / 3, 2 * n / 3}
		const runs = 50
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if _, err := d0.ApplyDelta(adds, deletes); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	small, large := perDelta(6_000), perDelta(60_000)
	t.Logf("10-op delta: %.0f B at |Dm|=6k, %.0f B at 60k (%.2f×)", small, large, large/small)
	if large > 1.6*small {
		t.Fatalf("a 10-op delta allocates %.0f B at |Dm|=60k, %.2f× the %.0f B at 6k (bound 1.6×)", large, large/small, small)
	}
}
