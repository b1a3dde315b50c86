package authtree

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/relation"
)

var testSchema = relation.MustSchema("Rm",
	relation.Attribute{Name: "a", Type: relation.TypeString},
	relation.Attribute{Name: "b", Type: relation.TypeInt},
	relation.Attribute{Name: "c", Type: relation.TypeString},
)

// randTuple draws from a small domain so duplicate tuples (multiset
// counts > 1) occur naturally.
func randTuple(rng *rand.Rand) relation.Tuple {
	strs := []string{"x", "y", "z", "", "long-ish value"}
	t := relation.Tuple{
		relation.String(strs[rng.Intn(len(strs))]),
		relation.Int(int64(rng.Intn(4))),
		relation.String(strs[rng.Intn(len(strs))]),
	}
	if rng.Intn(8) == 0 {
		t[0] = relation.Null
	}
	return t
}

func mustRel(t *testing.T, tuples []relation.Tuple) *relation.Relation {
	t.Helper()
	rel, err := relation.FromTuples(testSchema, tuples)
	if err != nil {
		t.Fatal(err)
	}
	return rel
}

func TestEmptyTree(t *testing.T) {
	tr := New()
	if tr.Root() != (Hash{}) {
		t.Fatalf("empty root = %v, want zero", tr.Root())
	}
	if tr.Len() != 0 {
		t.Fatalf("empty len = %d", tr.Len())
	}
	if _, ok := tr.Prove(randTuple(rand.New(rand.NewSource(1)))); ok {
		t.Fatal("Prove on empty tree succeeded")
	}
	if _, ok := tr.Remove(randTuple(rand.New(rand.NewSource(1)))); ok {
		t.Fatal("Remove on empty tree succeeded")
	}
}

// TestIncrementalVsRebuild is the oracle property: a tree maintained by
// random interleaved Insert/Remove equals a from-scratch Build over the
// surviving multiset after every single operation.
func TestIncrementalVsRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	tr := New()
	var live []relation.Tuple
	for step := 0; step < 400; step++ {
		if len(live) > 0 && rng.Intn(3) == 0 {
			i := rng.Intn(len(live))
			var ok bool
			tr, ok = tr.Remove(live[i])
			if !ok {
				t.Fatalf("step %d: Remove of live tuple failed", step)
			}
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		} else {
			tu := randTuple(rng)
			tr = tr.Insert(tu)
			live = append(live, tu)
		}
		if tr.Len() != len(live) {
			t.Fatalf("step %d: Len = %d, want %d", step, tr.Len(), len(live))
		}
		oracle := Build(mustRel(t, append([]relation.Tuple(nil), live...)))
		if tr.Root() != oracle.Root() {
			t.Fatalf("step %d: incremental root %v != rebuild root %v", step, tr.Root(), oracle.Root())
		}
	}
}

func TestInsertionOrderIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tuples := make([]relation.Tuple, 100)
	for i := range tuples {
		tuples[i] = randTuple(rng)
	}
	want := Build(mustRel(t, tuples)).Root()
	for trial := 0; trial < 5; trial++ {
		shuffled := append([]relation.Tuple(nil), tuples...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		if got := Build(mustRel(t, shuffled)).Root(); got != want {
			t.Fatalf("trial %d: shuffled root %v != %v", trial, got, want)
		}
	}
}

func TestRemoveAbsent(t *testing.T) {
	tr := New().Insert(relation.Tuple{relation.String("x"), relation.Int(1), relation.String("y")})
	before := tr.Root()
	absent := relation.Tuple{relation.String("x"), relation.Int(2), relation.String("y")}
	if _, ok := tr.Remove(absent); ok {
		t.Fatal("Remove of absent tuple succeeded")
	}
	if tr.Root() != before {
		t.Fatal("failed Remove mutated the tree")
	}
}

// TestKeyCollision forces two distinct contents onto one trie key (the
// case a real 64-bit FNV collision would produce) and checks the leaf's
// multiset commitment keeps them apart.
func TestKeyCollision(t *testing.T) {
	const key = uint64(0xdeadbeefcafef00d)
	va, vb := Hash{1}, Hash{2}
	tr := New().insertHashed(key, vb).insertHashed(key, va).insertHashed(key, va)
	if tr.Len() != 3 {
		t.Fatalf("Len = %d, want 3", tr.Len())
	}
	if tr.root.run == nil || len(tr.root.run) != 3 {
		t.Fatal("collided keys did not share a page")
	}
	p, ok := tr.proveHashed(key, vb)
	if !ok || len(p.Siblings) != 0 || !reflect.DeepEqual(p.Entries, []Entry{{va, 2}, {vb, 1}}) {
		t.Fatalf("proof = %+v (%v), want a leaf at the root with counts 2,1 sorted by vhash", p, ok)
	}
	if want := oldLeafHash(key, p.Entries); tr.Root() != want {
		t.Fatalf("root %v, want the leaf hash %v", tr.Root(), want)
	}
	// Removing one copy must leave the other provable under the new root.
	tr, ok = tr.removeHashed(key, va)
	if !ok {
		t.Fatal("remove of committed vhash failed")
	}
	p, ok = tr.proveHashed(key, va)
	if !ok || !reflect.DeepEqual(p.Entries, []Entry{{va, 1}, {vb, 1}}) || tr.Root() != oldLeafHash(key, p.Entries) {
		t.Fatalf("after remove: proof = %+v (%v)", p, ok)
	}
}

// TestDeepSpine commits two keys that differ only in their lowest bit: the
// committed trie runs down the full 64-level spine — inside one page, which
// stores none of it — and removal collapses it back to a leaf at the root.
func TestDeepSpine(t *testing.T) {
	ka, kb := uint64(0), uint64(1)
	tr := New().insertHashed(ka, Hash{1}).insertHashed(kb, Hash{2})
	if tr.nodes != 1 {
		t.Fatalf("two tuples stored in %d nodes, want one page", tr.nodes)
	}
	want := oldInsert(oldInsert(nil, ka, Hash{1}, 0), kb, Hash{2}, 0)
	if tr.Root() != want.hash {
		t.Fatalf("root %v, the node tree's %v", tr.Root(), want.hash)
	}
	p, ok := tr.proveHashed(ka, Hash{1})
	if !ok || len(p.Siblings) != Depth {
		t.Fatalf("proof of %d siblings (%v), want the leaf at depth %d", len(p.Siblings), ok, Depth)
	}
	for d, sib := range p.Siblings[:Depth-1] {
		if sib != (Hash{}) {
			t.Fatalf("sibling at depth %d is %v, want the empty subtree", d, sib)
		}
	}
	if wp, _ := oldProve(want, ka, Hash{1}); !reflect.DeepEqual(p, wp) {
		t.Fatalf("proof %+v, the node tree's %+v", p, wp)
	}
	tr, ok = tr.removeHashed(kb, Hash{2})
	if !ok {
		t.Fatal("remove failed")
	}
	if tr.Root() != oldLeafHash(ka, []Entry{{VHash: Hash{1}, Count: 1}}) {
		t.Fatal("spine did not collapse to the surviving leaf")
	}
}

func TestProofRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	tuples := make([]relation.Tuple, 200)
	for i := range tuples {
		tuples[i] = randTuple(rng)
	}
	tr := Build(mustRel(t, tuples))
	root := tr.Root()
	for i, tu := range tuples {
		p, ok := tr.Prove(tu)
		if !ok {
			t.Fatalf("tuple %d: Prove failed", i)
		}
		if err := VerifyInclusion(root, tu, p); err != nil {
			t.Fatalf("tuple %d: genuine proof rejected: %v", i, err)
		}
		// The JSON wire form must survive a round trip field for field.
		b, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		var q Proof
		if err := json.Unmarshal(b, &q); err != nil {
			t.Fatal(err)
		}
		if !sameProof(p, &q) {
			t.Fatalf("tuple %d: decoded proof %+v, sent %+v", i, q, p)
		}
	}
}

func TestProofTamperRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tuples := make([]relation.Tuple, 64)
	for i := range tuples {
		tuples[i] = randTuple(rng)
	}
	tr := Build(mustRel(t, tuples))
	root := tr.Root()

	check := func(name string, root Hash, tu relation.Tuple, p *Proof) {
		t.Helper()
		if err := VerifyInclusion(root, tu, p); !errors.Is(err, ErrBadProof) {
			t.Fatalf("%s: err = %v, want ErrBadProof", name, err)
		}
	}

	// Tuple 17's content is held more than once, so its leaf is spelled
	// out; some other tuple's leaf is elided. Each single mutation of tuple,
	// proof or root must reject under either.
	var elided relation.Tuple
	for _, tu := range tuples {
		if p, _ := tr.Prove(tu); p.Entries == nil {
			elided = tu
			break
		}
	}
	if elided == nil {
		t.Fatal("no tuple's leaf is elided")
	}
	for i, tu := range []relation.Tuple{tuples[17], elided} {
		p, ok := tr.Prove(tu)
		if !ok || (p.Entries == nil) != (i == 1) {
			t.Fatalf("proof of %v: %v, entries %v", tu, ok, p.Entries)
		}
		tampered := tu.Clone()
		tampered[1] = relation.Int(tu[1].Int64() + 1)
		check("tuple cell", root, tampered, p)

		badRoot := root
		badRoot[0] ^= 1
		check("root bit", badRoot, tu, p)

		if len(p.Siblings) > 0 {
			q := *p
			q.Siblings = append([]Hash(nil), p.Siblings...)
			q.Siblings[0][3] ^= 0x40
			check("sibling hash", root, tu, &q)

			q = *p
			q.Siblings = p.Siblings[:len(p.Siblings)-1]
			check("truncated spine", root, tu, &q)
		}

		q := *p
		q.Key ^= 1
		check("proof key", root, tu, &q)

		q = *p
		q.Entries = []Entry{}
		check("empty leaf", root, tu, &q)

		check("nil proof", root, tu, nil)

		q = *p
		q.Siblings = make([]Hash, Depth+1)
		check("overlong spine", root, tu, &q)

		if p.Entries != nil {
			q = *p
			q.Entries = append([]Entry(nil), p.Entries...)
			q.Entries[0].Count++
			check("entry count", root, tu, &q)

			q = *p
			q.Entries = nil
			check("spelled-out leaf elided", root, tu, &q)
			continue
		}
		q = *p
		q.Entries = []Entry{{VHash: Sum(tu), Count: 2}}
		check("wrong leaf", root, tu, &q)

		// The elided leaf spelled out folds to the root, but it is a second
		// spelling of one proof.
		q = *p
		q.Entries = []Entry{{VHash: Sum(tu), Count: 1}}
		check("elided leaf spelled out", root, tu, &q)
	}
}

func TestHashHexRoundTrip(t *testing.T) {
	h := Hash{0xde, 0xad, 0xbe, 0xef}
	parsed, err := ParseHash(h.String())
	if err != nil || parsed != h {
		t.Fatalf("round trip: %v %v", parsed, err)
	}
	if _, err := ParseHash("zz"); err == nil {
		t.Fatal("ParseHash accepted non-hex")
	}
	if _, err := ParseHash("abcd"); err == nil {
		t.Fatal("ParseHash accepted short input")
	}
}

// sameProof reports whether two proofs are equal field for field, a nil
// slice distinct from an empty one.
func sameProof(a, b *Proof) bool {
	return a.Key == b.Key && slices.Equal(a.Entries, b.Entries) && slices.Equal(a.Siblings, b.Siblings) &&
		(a.Entries == nil) == (b.Entries == nil) && (a.Siblings == nil) == (b.Siblings == nil)
}

// proofsOf proves every tuple under tr's root and checks each proof.
func proofsOf(t *testing.T, ctx string, tr *Tree, tuples []relation.Tuple) []*Proof {
	t.Helper()
	proofs := make([]*Proof, len(tuples))
	for i, tu := range tuples {
		p, ok := tr.Prove(tu)
		if !ok {
			t.Fatalf("%s: tuple %d not provable", ctx, i)
		}
		if err := VerifyInclusion(tr.Root(), tu, p); err != nil {
			t.Fatalf("%s: tuple %d: %v", ctx, i, err)
		}
		proofs[i] = p
	}
	return proofs
}

// TestCOWSharing: deriving a tree must not disturb the one it was derived
// from — the property the snapshot ring depends on. Updates rewrite a page
// and copy a spine; a parent's pages are shared with its children, so a child
// that wrote into one in place would change what the parent proves, and two
// children of one parent would see each other's tuples.
func TestCOWSharing(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tuples := make([]relation.Tuple, 300)
	for i := range tuples {
		tuples[i] = randTuple(rng)
		tuples[i][1] = relation.Int(int64(i / 2)) // pairs of equal keys now and then
	}
	parent := Build(mustRel(t, tuples))
	root, proofs := parent.Root(), proofsOf(t, "parent", parent, tuples)

	// Two children edit the same pages of one parent: a removes what b
	// keeps, both insert into the neighbourhood of the same tuples.
	a, b := parent, parent
	var aLive, bLive []relation.Tuple
	for i, tu := range tuples {
		extra := tu.Clone()
		extra[1] = relation.Int(int64(1000 + i))
		var ok bool
		switch i % 3 {
		case 0:
			if a, ok = a.Remove(tu); !ok {
				t.Fatalf("child a: tuple %d not committed", i)
			}
			bLive = append(bLive, tu)
		case 1:
			if b, ok = b.Remove(tu); !ok {
				t.Fatalf("child b: tuple %d not committed", i)
			}
			a = a.Insert(extra)
			aLive = append(aLive, tu, extra)
		default:
			b = b.Insert(extra)
			aLive, bLive = append(aLive, tu), append(bLive, tu, extra)
		}
	}
	if parent.Root() != root || !reflect.DeepEqual(proofsOf(t, "parent after its children", parent, tuples), proofs) {
		t.Fatal("deriving children changed what the parent proves")
	}
	for _, c := range []struct {
		name string
		tr   *Tree
		live []relation.Tuple
	}{{"child a", a, aLive}, {"child b", b, bLive}} {
		if want := Build(mustRel(t, c.live)); c.tr.Root() != want.Root() || c.tr.Len() != len(c.live) {
			t.Fatalf("%s commits %d tuples under %v, a build of its own tuples %d under %v",
				c.name, c.tr.Len(), c.tr.Root(), want.Len(), want.Root())
		}
		proofsOf(t, c.name, c.tr, c.live)
		checkStored(t, c.name, c.tr)
	}
}

// checkStored holds the stored tree to its form: every page a sorted run
// small enough to be one and hashed as the subtree it spells at its depth,
// every inner node over at least two keys that share its prefix, and the
// counters what a walk counts.
func checkStored(t *testing.T, ctx string, tr *Tree) {
	t.Helper()
	nodes := 0
	// walk returns the subtree's smallest and largest key and its tuple count.
	var walk func(n *node, depth int) (lo, hi uint64, size int)
	walk = func(n *node, depth int) (lo, hi uint64, size int) {
		nodes++
		if n.run != nil {
			if len(n.run) == 0 || !isPage(n.run) || !slices.IsSortedFunc(n.run, compareHashed) || n.hash != hashRun(n.run, depth) {
				t.Fatalf("%s: depth %d: page of %d tuples out of form", ctx, depth, len(n.run))
			}
			lo, hi, size = n.run[0].key, n.run[len(n.run)-1].key, len(n.run)
		} else {
			lo, hi = ^uint64(0), 0
			for side, c := range []*node{n.left, n.right} {
				if c == nil {
					continue
				}
				clo, chi, csize := walk(c, depth+1)
				if bit(clo, depth) != uint64(side) || bit(chi, depth) != uint64(side) {
					t.Fatalf("%s: depth %d: keys %#x..%#x under child %d", ctx, depth, clo, chi, side)
				}
				lo, hi, size = min(lo, clo), max(hi, chi), size+csize
			}
			if lo >= hi || n.hash != oldInnerHash(hashOf(n.left), hashOf(n.right)) {
				t.Fatalf("%s: depth %d: inner node over keys %#x..%#x out of form", ctx, depth, lo, hi)
			}
		}
		if depth > 0 && lo>>(Depth-depth) != hi>>(Depth-depth) {
			t.Fatalf("%s: depth %d: keys %#x and %#x under one prefix", ctx, depth, lo, hi)
		}
		return lo, hi, size
	}
	size := 0
	if tr.root != nil {
		_, _, size = walk(tr.root, 0)
	}
	if size != tr.size || nodes != tr.nodes {
		t.Fatalf("%s: counted %d tuples in %d nodes, the tree says %d in %d", ctx, size, nodes, tr.size, tr.nodes)
	}
}

// TestBuildEqualsIncremental holds the one-pass build to the Insert chain it
// replaced and both to the node tree: over random multisets — duplicates,
// forced equal keys with different contents, keys sharing all but their
// lowest bits, everything crowded under one of the prefixes the parallel
// assembly cuts at, one key alone, every key in the last prefix, sizes on
// either side of each step of the cut — all three commit to the same root
// and emit the same proof for every committed tuple, at every GOMAXPROCS.
// Where the two paged trees cut their pages may differ; what they commit to
// may not.
func TestBuildEqualsIncremental(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	type shape struct {
		name string
		n    int
		key  func(rng *rand.Rand) uint64
	}
	shapes := []shape{
		{"empty", 0, nil},
		{"one", 1, (*rand.Rand).Uint64},
		{"random", 2 * parallelKeys, (*rand.Rand).Uint64},
		{"few keys", 500, func(rng *rand.Rand) uint64 { return uint64(rng.Intn(40)) * 0x0123456789abcdef }},
		{"deep spines", 600, func(rng *rand.Rand) uint64 {
			// Eight clusters of four keys that differ in their two lowest bits.
			return uint64(rng.Intn(8))*0x1f3d5b79a1c3e5f7&^3 | uint64(rng.Intn(4))
		}},
		{"low bits only", 300, func(rng *rand.Rand) uint64 { return uint64(rng.Intn(64)) }},
		{"one crowded prefix", 2 * parallelKeys, func(rng *rand.Rand) uint64 { return 0xabc<<52 | rng.Uint64()>>12 }},
		{"crowded prefix and strays", 2 * parallelKeys, func(rng *rand.Rand) uint64 {
			if rng.Intn(50) == 0 {
				return rng.Uint64()
			}
			return 0x5<<60 | rng.Uint64()>>4
		}},
	}
	// The shapes above draw one multiset per GOMAXPROCS (seed
	// 1000*procs+si); the prefix-partition shapes below draw one (seed
	// 1000+si): one key, so one bucket holds every pair and the rest are
	// empty; every key in the last prefix at every cut; and the sizes on
	// either side of each step of cut.
	multiSeed := len(shapes)
	shapes = append(shapes,
		shape{"one key", 2*parallelKeys + 1, func(*rand.Rand) uint64 { return 0x9e3779b97f4a7c15 }},
		shape{"last prefix", 4 * parallelKeys, func(rng *rand.Rand) uint64 { return 0xffff<<48 | rng.Uint64()>>16 }},
	)
	for k := 1; k <= 3; k++ {
		for _, d := range []int{-1, 0, 1} {
			n := parallelKeys<<k + d
			shapes = append(shapes, shape{fmt.Sprintf("%d random", n), n, (*rand.Rand).Uint64})
		}
	}
	// The insert chain and the node tree do not depend on GOMAXPROCS: each
	// multiset's are derived once, and its build at every GOMAXPROCS is held
	// to them.
	for si, sh := range shapes {
		seeds := []int64{int64(1000 + si)}
		if si < multiSeed {
			seeds = []int64{int64(1000 + si), int64(2000 + si), int64(7000 + si)}
		}
		for _, seed := range seeds {
			rng := rand.New(rand.NewSource(seed))
			hashed := make([]hashedTuple, sh.n)
			for i := range hashed {
				hashed[i].key = sh.key(rng)
				// A handful of contents per key: equal keys with different
				// contents, and exact duplicates (counts above one).
				hashed[i].vhash = Hash{byte(rng.Intn(3)), byte(hashed[i].key)}
			}
			name := fmt.Sprintf("%s (seed %d)", sh.name, seed)
			chain := New()
			var old *oldNode
			for _, h := range hashed {
				chain = chain.insertHashed(h.key, h.vhash)
				old = oldInsert(old, h.key, h.vhash, 0)
			}
			checkStored(t, name+" chain", chain)
			wants := map[hashedTuple]*Proof{} // a duplicate has its twin's proof
			for _, h := range hashed {
				if _, seen := wants[h]; seen {
					continue
				}
				inc, iok := chain.proveHashed(h.key, h.vhash)
				want, wok := oldProve(old, h.key, h.vhash)
				if !iok || !wok || !sameProof(inc, want) {
					t.Fatalf("%s: proofs of key %#x differ: chain %+v (%v), node tree %+v (%v)",
						name, h.key, inc, iok, want, wok)
				}
				wants[h] = want
			}
			for _, procs := range []int{1, 2, 7} {
				runtime.GOMAXPROCS(procs)
				built := buildHashed(append([]hashedTuple(nil), hashed...))
				ctx := fmt.Sprintf("GOMAXPROCS %d, %s", procs, name)
				if built.Len() != chain.Len() || built.Root() != chain.Root() || built.Root() != oldHashOf(old) {
					t.Fatalf("%s: build commits %d tuples under %v, insert chain %d under %v, node tree under %v",
						ctx, built.Len(), built.Root(), chain.Len(), chain.Root(), oldHashOf(old))
				}
				checkStored(t, ctx+" built", built)
				for h, want := range wants {
					if got, ok := built.proveHashed(h.key, h.vhash); !ok || !sameProof(got, want) {
						t.Fatalf("%s: proofs of key %#x differ: built %+v (%v), node tree %+v",
							ctx, h.key, got, ok, want)
					}
				}
			}
		}
	}
	for _, procs := range []int{1, 2, 7} {
		runtime.GOMAXPROCS(procs)
		// Through the public entry point, tuples and all.
		rng := rand.New(rand.NewSource(int64(procs)))
		tuples := make([]relation.Tuple, 2*parallelKeys)
		chain := New()
		for i := range tuples {
			tuples[i] = randTuple(rng)
			if i%3 == 0 {
				tuples[i][1] = relation.Int(int64(i)) // mostly distinct, some duplicates
			}
			chain = chain.Insert(tuples[i])
		}
		if built := Build(mustRel(t, tuples)); built.Root() != chain.Root() || built.Len() != chain.Len() {
			t.Fatalf("GOMAXPROCS %d: Build over tuples differs from the insert chain", procs)
		}
	}
}

// TestUpdateProgram runs 20,000 random inserts and removes — duplicate
// tuples, contents forced onto a live tuple's key, keys a few low bits away
// from a live one, so pages split, fold and hold more than pageMax tuples of
// one key — and every 64th step holds the tree to a build from scratch and to
// the node tree maintained beside it: same root, every live tuple's proof
// field for field the node tree's and verifying under VerifyInclusion, nothing
// provable or removable that is not committed.
func TestUpdateProgram(t *testing.T) {
	type item struct {
		hashedTuple
		tuple relation.Tuple // nil for a forced (key, vhash)
	}
	rng := rand.New(rand.NewSource(20))
	tr := New()
	var old *oldNode
	var live, gone []item
	for step := 1; step <= 20_000; step++ {
		grow := 7
		if len(live) > 600 {
			grow = 4
		}
		if len(live) == 0 || rng.Intn(10) < grow {
			var it item
			switch r := rng.Intn(16); {
			case r == 0 && len(live) > 0: // a foreign content on a live key
				it.hashedTuple = hashedTuple{live[rng.Intn(len(live))].key, Hash{byte(rng.Intn(40))}}
			case r == 1 && len(live) > 0: // a neighbour down a deep spine
				it.hashedTuple = hashedTuple{live[rng.Intn(len(live))].key ^ uint64(1+rng.Intn(7)), Hash{byte(rng.Intn(3))}}
			default:
				it.tuple = randTuple(rng)
				if r < 12 {
					it.tuple[1] = relation.Int(int64(rng.Intn(5000)))
				}
				it.hashedTuple = hashedTuple{Key(it.tuple), Sum(it.tuple)}
			}
			tr = tr.insertHashed(it.key, it.vhash)
			old = oldInsert(old, it.key, it.vhash, 0)
			live = append(live, it)
		} else {
			i := rng.Intn(len(live))
			it := live[i]
			var ok, wok bool
			if tr, ok = tr.removeHashed(it.key, it.vhash); !ok {
				t.Fatalf("step %d: live tuple not removable", step)
			}
			if old, wok = oldRemove(old, it.key, it.vhash, 0); !wok {
				t.Fatalf("step %d: live tuple not removable from the node tree", step)
			}
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			gone = append(gone, it)
		}
		if step%64 != 0 {
			continue
		}
		ctx := fmt.Sprintf("step %d", step)
		hashed := make([]hashedTuple, len(live))
		counts := make(map[hashedTuple]int, len(live))
		for i, it := range live {
			hashed[i] = it.hashedTuple
			counts[it.hashedTuple]++
		}
		if built := buildHashed(hashed); tr.Len() != len(live) || tr.Root() != built.Root() || tr.Root() != oldHashOf(old) {
			t.Fatalf("%s: %d tuples under %v, a build under %v, the node tree under %v", ctx, tr.Len(), tr.Root(), built.Root(), oldHashOf(old))
		}
		checkStored(t, ctx, tr)
		for _, it := range live {
			got, ok := tr.proveHashed(it.key, it.vhash)
			want, wok := oldProve(old, it.key, it.vhash)
			if !ok || !wok {
				t.Fatalf("%s: live key %#x not provable (%v, node tree %v)", ctx, it.key, ok, wok)
			}
			if !sameProof(got, want) {
				t.Fatalf("%s: proof of key %#x\n%+v\nthe node tree's\n%+v", ctx, it.key, got, want)
			}
			if it.tuple != nil {
				if err := VerifyInclusion(tr.Root(), it.tuple, got); err != nil {
					t.Fatalf("%s: %v", ctx, err)
				}
			}
		}
		for _, it := range gone {
			if counts[it.hashedTuple] > 0 {
				continue // committed again since, or still held in another copy
			}
			if _, ok := tr.proveHashed(it.key, it.vhash); ok {
				t.Fatalf("%s: removed key %#x still provable", ctx, it.key)
			}
			if same, ok := tr.removeHashed(it.key, it.vhash); ok || same != tr || tr.Root() != oldHashOf(old) {
				t.Fatalf("%s: removing an absent tuple returned (%p, %v) on %p", ctx, same, ok, tr)
			}
		}
		gone = gone[:0]
	}
}
