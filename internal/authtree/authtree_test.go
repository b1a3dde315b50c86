package authtree

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
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
	tr := New().insertHashed(key, va).insertHashed(key, vb).insertHashed(key, va)
	if tr.Len() != 3 {
		t.Fatalf("Len = %d, want 3", tr.Len())
	}
	leaf := tr.root
	if leaf.entries == nil {
		t.Fatal("collided keys did not share a leaf")
	}
	if len(leaf.entries) != 2 || leaf.entries[0].Count != 2 || leaf.entries[1].Count != 1 {
		t.Fatalf("leaf entries = %+v, want counts 2,1 sorted by vhash", leaf.entries)
	}
	// Removing one copy must leave the other provable under the new root.
	root, ok := remove(tr.root, key, va, 0)
	if !ok {
		t.Fatal("remove of committed vhash failed")
	}
	if len(root.entries) != 2 || root.entries[0].Count != 1 {
		t.Fatalf("after remove: entries = %+v", root.entries)
	}
}

// TestDeepSpine drives two keys that differ only in their lowest bit down
// the full 64-level spine, then checks removal collapses it back.
func TestDeepSpine(t *testing.T) {
	ka, kb := uint64(0), uint64(1)
	tr := New().insertHashed(ka, Hash{1}).insertHashed(kb, Hash{2})
	depth := 0
	for n := tr.root; n.entries == nil; n = n.left {
		if bit(ka, depth) == 1 {
			t.Fatalf("test key routes right at depth %d", depth)
		}
		depth++
		if depth > Depth {
			t.Fatal("spine exceeds key width")
		}
	}
	if depth != Depth {
		t.Fatalf("leaf depth = %d, want %d", depth, Depth)
	}
	root, ok := remove(tr.root, kb, Hash{2}, 0)
	if !ok {
		t.Fatal("remove failed")
	}
	if root.entries == nil || root.key != ka {
		t.Fatal("spine did not collapse to the surviving leaf")
	}
	if root.hash != newLeaf(ka, []Entry{{VHash: Hash{1}, Count: 1}}).hash {
		t.Fatal("collapsed leaf hash differs from a fresh leaf")
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
		// The JSON wire form must survive a round trip and still verify.
		b, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		var q Proof
		if err := json.Unmarshal(b, &q); err != nil {
			t.Fatal(err)
		}
		if err := VerifyInclusion(root, tu, &q); err != nil {
			t.Fatalf("tuple %d: decoded proof rejected: %v", i, err)
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
	tu := tuples[17]
	p, ok := tr.Prove(tu)
	if !ok {
		t.Fatal("Prove failed")
	}

	check := func(name string, root Hash, tu relation.Tuple, p *Proof) {
		t.Helper()
		if err := VerifyInclusion(root, tu, p); !errors.Is(err, ErrBadProof) {
			t.Fatalf("%s: err = %v, want ErrBadProof", name, err)
		}
	}

	// Each single mutation of tuple, proof or root must reject.
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
	q.Entries = append([]Entry(nil), p.Entries...)
	q.Entries[0].Count++
	check("entry count", root, tu, &q)

	q = *p
	q.Entries = nil
	check("no entries", root, tu, &q)

	check("nil proof", root, tu, nil)

	q = *p
	q.Siblings = make([]Hash, Depth+1)
	check("overlong spine", root, tu, &q)
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

// TestCOWSharing: updating a tree must not disturb previously captured
// epochs — the property the snapshot ring depends on.
func TestCOWSharing(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tr := New()
	var roots []Hash
	var trees []*Tree
	var live [][]relation.Tuple
	var cur []relation.Tuple
	for e := 0; e < 20; e++ {
		tu := randTuple(rng)
		tr = tr.Insert(tu)
		cur = append(cur, tu)
		trees = append(trees, tr)
		roots = append(roots, tr.Root())
		live = append(live, append([]relation.Tuple(nil), cur...))
	}
	for e := range trees {
		if trees[e].Root() != roots[e] {
			t.Fatalf("epoch %d root changed after later inserts", e)
		}
		for _, tu := range live[e] {
			p, ok := trees[e].Prove(tu)
			if !ok || VerifyInclusion(roots[e], tu, p) != nil {
				t.Fatalf("epoch %d: retained tree lost a tuple", e)
			}
		}
	}
}

// sameTree compares two tries node by node: form, key, entries and hash.
func sameTree(a, b *node) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.hash != b.hash || a.key != b.key || len(a.entries) != len(b.entries) || (a.entries == nil) != (b.entries == nil) {
		return false
	}
	for i := range a.entries {
		if a.entries[i] != b.entries[i] {
			return false
		}
	}
	return sameTree(a.left, b.left) && sameTree(a.right, b.right)
}

// TestBuildEqualsIncremental holds the one-pass build to the Insert chain it
// replaced: over random multisets — duplicates, forced equal keys with
// different contents, keys sharing all but their lowest bits, everything
// crowded under one of the prefixes the parallel assembly cuts at — both
// produce the same trie node for node, hence the same root, and the same
// proof for every committed tuple, at every GOMAXPROCS.
func TestBuildEqualsIncremental(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	shapes := []struct {
		name string
		n    int
		key  func(rng *rand.Rand) uint64
	}{
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
	for _, procs := range []int{1, 2, 7} {
		runtime.GOMAXPROCS(procs)
		for si, shape := range shapes {
			rng := rand.New(rand.NewSource(int64(1000*procs + si)))
			hashed := make([]hashedTuple, shape.n)
			for i := range hashed {
				hashed[i].key = shape.key(rng)
				// A handful of contents per key: equal keys with different
				// contents, and exact duplicates (counts above one).
				hashed[i].vhash = Hash{byte(rng.Intn(3)), byte(hashed[i].key)}
			}
			chain := New()
			for _, h := range hashed {
				chain = chain.insertHashed(h.key, h.vhash)
			}
			built := buildHashed(append([]hashedTuple(nil), hashed...))
			ctx := fmt.Sprintf("GOMAXPROCS %d, %s", procs, shape.name)
			if built.Len() != chain.Len() || built.Root() != chain.Root() {
				t.Fatalf("%s: build commits %d tuples under %v, insert chain %d under %v",
					ctx, built.Len(), built.Root(), chain.Len(), chain.Root())
			}
			if !sameTree(built.root, chain.root) {
				t.Fatalf("%s: equal roots over different tries", ctx)
			}
			for _, h := range hashed {
				got, ok := built.proveHashed(h.key, h.vhash)
				want, wok := chain.proveHashed(h.key, h.vhash)
				if !ok || !wok || !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: proofs of key %#x differ: %+v (%v) vs %+v (%v)", ctx, h.key, got, ok, want, wok)
				}
			}
		}
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
		if built := Build(mustRel(t, tuples)); !sameTree(built.root, chain.root) || built.Len() != chain.Len() {
			t.Fatalf("GOMAXPROCS %d: Build over tuples differs from the insert chain", procs)
		}
	}
}
