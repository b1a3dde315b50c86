// Package authtree commits a master relation to a single 32-byte root: a
// compact sparse Merkle tree over the content hashes of its tuples, with
// copy-on-write nodes so ApplyDelta can maintain the root incrementally
// per epoch — O(delta · depth) hashing, never a rebuild — exactly the way
// it already maintains the indexes.
//
// The tree that is committed. A collapsed binary trie over 64-bit tuple
// keys, most-significant bit first. A key is the content-pure FNV chain the
// sharded master already routes on (relation.HashSeed folded with
// relation.HashValue over every cell), so the trie's shape — and therefore
// the root — is a pure function of the tuple multiset: independent of
// insertion order, shard count, tuple ids and the swap-remove renumbering
// ApplyDelta performs. Three node forms keep the trie canonical:
//
//   - empty: zero tuples; its hash is 32 zero bytes (the root of an empty
//     master).
//   - leaf: every tuple whose key lands here. FNV keys are not collision
//     free, so a leaf commits to a sorted multiset of sha256 content
//     hashes: entries (vhash, count), ordered by vhash. Integrity rests on
//     sha256 over the injective canonical tuple encoding; the 64-bit key
//     only places the leaf in the trie.
//   - inner: an internal node whose subtree holds ≥ 2 distinct keys; its
//     children split on the next key bit, one-armed along a prefix all its
//     keys share. A subtree of one key is always a leaf, at whatever depth
//     it became alone.
//
// Hashing is domain separated: leafHash = H(0x00 ‖ key ‖ n ‖ entries),
// innerHash = H(0x01 ‖ left ‖ right).
//
// The tree that is stored. Only the top of that trie exists as nodes. A
// subtree of at most pageMax tuples (or of one key, however many tuples
// carry it) is a PAGE: its tuples' (key, vhash) pairs as one sorted run, 40
// bytes a tuple, under the one hash of the subtree they spell. The leaves
// and inner nodes inside a page are not kept; hashRun re-derives their
// hashes from the run whenever the page is built or a proof descends into
// it. Nodes are immutable: an update copies one page and the O(depth) spine
// of inner nodes above it — splitting a page that outgrew pageMax, folding
// an inner node whose two pages shrank to pageMin back into one — and
// shares every untouched subtree with the previous epoch, so retaining a
// snapshot ring of authenticated epochs costs O(delta · depth) nodes per
// epoch, not a tree per epoch. Where pages begin is a storage decision and
// depends on the history of updates; every root and every proof is that of
// the committed trie and does not.
//
// An inclusion proof for a tuple is its leaf's entry list — left out when
// the leaf holds that tuple alone, once — plus the sibling hashes along the
// spine; Prove emits one and VerifyInclusion checks it against a root with
// no access to the tree — the client-side half of "verify a fix without
// trusting the server".
package authtree

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"runtime"
	"slices"
	"sort"

	"repro/internal/parallel"
	"repro/internal/relation"
)

// Hash is a 32-byte sha256 commitment (a node hash or a root).
type Hash [32]byte

// Depth is the key width in bits, the maximum trie depth and the maximum
// number of siblings a valid proof can carry.
const Depth = 64

const (
	tagLeaf  = 0x00
	tagInner = 0x01
)

// Key places a tuple in the trie: a content-pure FNV-1a chain over its
// cells (no interning), so a tuple's place is the same in every snapshot,
// process and replica.
func Key(t relation.Tuple) uint64 {
	acc := relation.HashSeed()
	for _, v := range t {
		acc = relation.HashValue(acc, v)
	}
	return acc
}

// Sum is the content commitment of one tuple: sha256 over an injective
// canonical encoding (arity, then each cell kind-tagged with an explicit
// length, so Null / "" / "1" / 1 can never collide the way the display
// encoding lets them).
func Sum(t relation.Tuple) Hash {
	// The encoding is built whole and hashed in one call; a HOSP tuple fits
	// the stack buffer, a longer one moves to the heap.
	var stack [1024]byte
	buf := binary.LittleEndian.AppendUint32(stack[:0], uint32(len(t)))
	for _, v := range t {
		switch v.Kind() {
		case relation.KindNull:
			buf = append(buf, 0x00)
		case relation.KindString:
			s := v.Str()
			buf = binary.LittleEndian.AppendUint32(append(buf, 0x01), uint32(len(s)))
			buf = append(buf, s...)
		default:
			buf = binary.LittleEndian.AppendUint64(append(buf, 0x02), uint64(v.Int64()))
		}
	}
	return sha256.Sum256(buf)
}

// Entry is one line of a leaf's multiset commitment: a tuple content hash
// and how many identical tuples the master holds.
type Entry struct {
	VHash Hash
	Count uint64
}

// hashedTuple is a tuple as the trie sees it: where it goes and what it
// commits to.
type hashedTuple struct {
	key   uint64
	vhash Hash
}

func compareHashed(a, b hashedTuple) int {
	if c := cmp.Compare(a.key, b.key); c != 0 {
		return c
	}
	return bytes.Compare(a.vhash[:], b.vhash[:])
}

// pageMax is the most tuples a page of more than one key holds, pageMin the
// size two sibling pages fold back into one at. Measured on 100k tuples
// (BenchmarkAuthBuild's live-B/tuple), on BenchmarkProofGen and on
// BenchmarkApplyDeltaAuth/Dm=60000 (the bytes one Insert and one Remove
// allocate), against a node per leaf and per inner node of the committed trie:
//
//	pageMax   live B/tuple   Prove    Insert + Remove
//	nodes     241            1.8 µs   3.2 KB
//	8          70            2.8 µs   3.0 KB
//	16         56            5.0 µs   4.5 KB
//	32         49            16 µs    —
//
// From 8 to 16 a page saves 14 B a tuple and makes every proof re-hash twice
// as much and every update copy half as much again; 8 already takes the tree
// from most of an authenticated master's overhead to a fraction of it.
// Folding at half of pageMax keeps a page that hovers around the boundary
// from splitting and folding on alternate updates.
const (
	pageMax = 8
	pageMin = pageMax / 2
)

// node is an immutable stored node, a page or an inner node: run != nil ⇒
// the page of run's tuples, sorted by (key, vhash); otherwise an inner node
// over left/right (either possibly nil = empty subtree). hash is that of the
// committed subtree either way.
type node struct {
	hash  Hash
	run   []hashedTuple
	left  *node
	right *node
}

// nodeBytes is a node in its allocation size class, tupleBytes one tuple of
// a page's run.
const nodeBytes, tupleBytes = 80, 40

func leafHash(key uint64, entries []Entry) Hash {
	var stack [13 + 4*40]byte // no allocation for the leaves real data has
	buf := stack[:0]
	if n := 13 + 40*len(entries); n > len(stack) {
		buf = make([]byte, 0, n)
	}
	buf = append(buf, tagLeaf)
	buf = binary.LittleEndian.AppendUint64(buf, key)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(entries)))
	for _, e := range entries {
		buf = append(buf, e.VHash[:]...)
		buf = binary.LittleEndian.AppendUint64(buf, e.Count)
	}
	return sha256.Sum256(buf)
}

func innerHash(left, right Hash) Hash {
	var buf [65]byte
	buf[0] = tagInner
	copy(buf[1:], left[:])
	copy(buf[33:], right[:])
	return sha256.Sum256(buf[:])
}

// oneKey reports whether a non-empty sorted run holds a single key: the run
// of a leaf.
func oneKey(run []hashedTuple) bool { return run[0].key == run[len(run)-1].key }

// splitRun returns where bit depth of the keys of a sorted run, which agree
// on the bits above it, turns from 0 to 1: run[:i] is the left child's run,
// run[i:] the right's.
func splitRun(run []hashedTuple, depth int) int {
	return sort.Search(len(run), func(i int) bool { return bit(run[i].key, depth) == 1 })
}

// countEntries folds a vhash-sorted run of one key into its leaf entries,
// appended to entries.
func countEntries(run []hashedTuple, entries []Entry) []Entry {
	for _, h := range run {
		if n := len(entries); n > 0 && entries[n-1].VHash == h.vhash {
			entries[n-1].Count++
		} else {
			entries = append(entries, Entry{VHash: h.vhash, Count: 1})
		}
	}
	return entries
}

// hashRun returns the hash of the committed subtree at depth over a sorted
// run whose keys share their first depth bits: zero for an empty run, a leaf
// for a single key (however many tuples carry it), otherwise an inner node
// over the two halves the depth's bit splits the run into — one-armed when
// all keys fall on one side. It is the definition of the committed trie;
// assemble and the update paths only decide how much of it to store.
func hashRun(run []hashedTuple, depth int) Hash {
	switch {
	case len(run) == 0:
		return Hash{}
	case oneKey(run):
		var stack [4]Entry
		return leafHash(run[0].key, countEntries(run, stack[:0]))
	}
	mid := splitRun(run, depth)
	return innerHash(hashRun(run[:mid], depth+1), hashRun(run[mid:], depth+1))
}

// isPage reports whether a non-empty run is stored as one page.
func isPage(run []hashedTuple) bool { return len(run) <= pageMax || oneKey(run) }

// newPage stores run, which the page keeps, as the subtree at depth.
func newPage(run []hashedTuple, depth int) *node {
	return &node{hash: hashRun(run, depth), run: run}
}

func newInner(left, right *node) *node {
	return &node{hash: innerHash(hashOf(left), hashOf(right)), left: left, right: right}
}

// hashOf treats a nil child as the empty subtree (all-zero hash).
func hashOf(n *node) Hash {
	if n == nil {
		return Hash{}
	}
	return n.hash
}

// bit extracts key bit d, MSB first: bit 0 decides the root's children.
func bit(key uint64, d int) uint64 { return (key >> (Depth - 1 - d)) & 1 }

// Tree is an immutable committed multiset of tuples. The zero Tree (and
// nil) is the empty tree. Updates return new trees sharing all untouched
// nodes; a Tree is safe for concurrent readers once published.
type Tree struct {
	root  *node
	size  int
	nodes int // stored nodes, pages and inner: kept by Build, Insert and Remove
}

// New returns an empty tree.
func New() *Tree { return &Tree{} }

// Build commits every tuple of a relation — the from-scratch path of
// construction, of arena loads (recovery and follower bootstrap recompute
// the root and verify it) and of lineages that turn authentication on. It
// is one pass, not n inserts: the tuples are hashed in parallel, the
// (key, vhash) pairs grouped by key prefix and each prefix sorted in
// parallel, and the pages and the inner nodes above them assembled bottom-up
// from the sorted run, so every hash is computed exactly once and no
// intermediate node is ever allocated. Insert and Remove remain the delta
// path, and the oracle this is tested against.
func Build(rel *relation.Relation) *Tree {
	return BuildFunc(rel.Len(), func(i int, _ relation.Tuple) relation.Tuple { return rel.Tuple(i) })
}

// BuildFunc is Build over any n tuples. tuple(i, buf) returns tuple i and
// may build it in buf — what its previous call on the same goroutine
// returned, nil on the first — because a tuple is hashed and dropped, never
// kept: a source that stores no tuples (the master's id rows) materializes
// each into one buffer per goroutine.
func BuildFunc(n int, tuple func(i int, buf relation.Tuple) relation.Tuple) *Tree {
	hashed := make([]hashedTuple, n)
	chunks := max(1, min(4*runtime.GOMAXPROCS(0), n))
	// The error is dropped because no job returns one.
	_, _ = parallel.Map(chunks, 0, func(c int) (struct{}, error) {
		var t relation.Tuple
		for i := c * n / chunks; i < (c+1)*n/chunks; i++ {
			t = tuple(i, t)
			hashed[i] = hashedTuple{Key(t), Sum(t)}
		}
		return struct{}{}, nil
	})
	return buildHashed(hashed)
}

// parallelKeys is the subtree size below which bottom-up assembly stays on
// one goroutine: a subtree of a few thousand keys is well under a
// millisecond of hashing.
const parallelKeys = 4096

// buildHashed builds the tree of a multiset of hashed tuples (permuted in
// place into trie order). Keys ascend in trie order — most significant bit
// first — so every subtree is a contiguous run: the run's keys agree on the
// bits above its depth, and the first key with the depth's bit set splits it
// into its two children. The 2^cut prefixes of runs of parallelKeys or more
// are parallel jobs: partition groups the pairs by prefix, and each job sorts
// its own prefix and assembles the subtree over it; the few levels above them
// are assembled serially once every prefix is sorted. Below parallelKeys cut
// is 0, one job over the whole run.
func buildHashed(hashed []hashedTuple) *Tree {
	// cut is the depth whose 2^cut prefixes are built as parallel jobs.
	cut := 0
	for len(hashed)>>cut >= parallelKeys && cut < 16 {
		cut++
	}
	starts := partition(hashed, cut)
	// The error is dropped because no job returns one.
	subs, _ := parallel.Map(1<<cut, 0, func(p int) (*node, error) {
		run := hashed[starts[p]:starts[p+1]]
		slices.SortFunc(run, compareHashed)
		return assemble(run, cut, 0, nil), nil
	})
	root := assemble(hashed, 0, cut, subs)
	return &Tree{root: root, size: len(hashed), nodes: countNodes(root)}
}

// partition permutes hashed in place so that the pairs of each of the 2^cut
// key prefixes form one contiguous run, in prefix order, and returns where
// the runs begin: prefix p's is hashed[starts[p]:starts[p+1]]. It is one
// counting pass and one pass of cycles, each pair moved straight to the next
// free slot of its prefix — an American flag sort of one digit, with no
// second array. (With cut = 0 the shift is 64 and every pair is prefix 0.)
func partition(hashed []hashedTuple, cut int) []int {
	shift := Depth - cut
	starts := make([]int, 1<<cut+1)
	for _, h := range hashed {
		starts[h.key>>shift+1]++
	}
	for p := 1; p < len(starts); p++ {
		starts[p] += starts[p-1]
	}
	next := slices.Clone(starts[:1<<cut])
	for p := range next {
		for i := next[p]; i < starts[p+1]; i = next[p] {
			q := hashed[i].key >> shift
			if q != uint64(p) {
				j := next[q]
				hashed[i], hashed[j] = hashed[j], hashed[i]
			}
			next[q]++
		}
	}
	return starts
}

// assemble stores the subtree at depth over a sorted run whose keys share
// their first depth bits: nothing for an empty run, a page for a run small
// enough to be one, otherwise an inner node over the two halves the depth's
// bit splits the run into. A page gets a copy of its stretch of the run: a
// page that aliased the caller's array would keep all of it alive for as long
// as it is the last one no update has replaced. With subs given, the
// subtrees at depth cut are taken from it by prefix, pages included.
func assemble(run []hashedTuple, depth, cut int, subs []*node) *node {
	switch {
	case len(run) == 0:
		return nil
	case subs != nil && depth == cut:
		return subs[run[0].key>>(Depth-cut)]
	case isPage(run):
		return newPage(slices.Clone(run), depth)
	}
	mid := splitRun(run, depth)
	return newInner(assemble(run[:mid], depth+1, cut, subs), assemble(run[mid:], depth+1, cut, subs))
}

func countNodes(n *node) int {
	if n == nil {
		return 0
	}
	return 1 + countNodes(n.left) + countNodes(n.right)
}

// Root returns the 32-byte commitment to the whole multiset.
func (tr *Tree) Root() Hash {
	if tr == nil {
		return Hash{}
	}
	return hashOf(tr.root)
}

// Len returns the number of committed tuples, counting duplicates.
func (tr *Tree) Len() int {
	if tr == nil {
		return 0
	}
	return tr.size
}

// Bytes returns what the tree's nodes and page runs occupy, from counters
// Build, Insert and Remove keep (allocator rounding of the runs aside).
// Trees of one lineage share most of it.
func (tr *Tree) Bytes() int64 {
	if tr == nil {
		return 0
	}
	return int64(tr.nodes)*nodeBytes + int64(tr.size)*tupleBytes
}

// Insert returns a tree additionally committing one tuple. The receiver
// is unchanged.
func (tr *Tree) Insert(t relation.Tuple) *Tree {
	return tr.insertHashed(Key(t), Sum(t))
}

func (tr *Tree) insertHashed(key uint64, vh Hash) *Tree {
	nt := &Tree{}
	if tr != nil {
		*nt = *tr
	}
	nt.root = nt.insert(nt.root, hashedTuple{key, vh}, 0)
	nt.size++
	return nt
}

// insert returns the subtree n at depth with h added: the spine down to h's
// page copied, the page rewritten — as inner nodes over smaller pages when
// it outgrew pageMax. tr is the tree being derived; it counts the nodes.
func (tr *Tree) insert(n *node, h hashedTuple, depth int) *node {
	switch {
	case n == nil:
		tr.nodes++
		return newPage([]hashedTuple{h}, depth)
	case n.run != nil:
		i, _ := slices.BinarySearchFunc(n.run, h, compareHashed)
		run := make([]hashedTuple, len(n.run)+1)
		copy(run, n.run[:i])
		run[i] = h
		copy(run[i+1:], n.run[i:])
		if isPage(run) {
			return newPage(run, depth)
		}
		sub := assemble(run, depth, 0, nil)
		tr.nodes += countNodes(sub) - 1
		return sub
	case bit(h.key, depth) == 0:
		return newInner(tr.insert(n.left, h, depth+1), n.right)
	default:
		return newInner(n.left, tr.insert(n.right, h, depth+1))
	}
}

// Remove returns a tree with one instance of the tuple removed, or false
// when the tuple is not committed (which callers treat as a broken
// tree-mirrors-relation invariant). The receiver is unchanged.
func (tr *Tree) Remove(t relation.Tuple) (*Tree, bool) {
	return tr.removeHashed(Key(t), Sum(t))
}

func (tr *Tree) removeHashed(key uint64, vh Hash) (*Tree, bool) {
	if tr == nil {
		return tr, false
	}
	nt := *tr
	var ok bool
	if nt.root, ok = nt.remove(tr.root, hashedTuple{key, vh}, 0); !ok {
		return tr, false
	}
	nt.size--
	return &nt, true
}

// remove is insert's inverse; false, with nothing counted, when h is not
// in the subtree.
func (tr *Tree) remove(n *node, h hashedTuple, depth int) (*node, bool) {
	switch {
	case n == nil:
		return nil, false
	case n.run != nil:
		i, found := slices.BinarySearchFunc(n.run, h, compareHashed)
		if !found {
			return nil, false
		}
		if len(n.run) == 1 {
			tr.nodes--
			return nil, true
		}
		return newPage(append(append(make([]hashedTuple, 0, len(n.run)-1), n.run[:i]...), n.run[i+1:]...), depth), true
	}
	left, right := n.left, n.right
	var ok bool
	if bit(h.key, depth) == 0 {
		left, ok = tr.remove(left, h, depth+1)
	} else {
		right, ok = tr.remove(right, h, depth+1)
	}
	if !ok {
		return nil, false
	}
	return tr.join(left, right, depth), true
}

// join stores the subtree at depth over the children a removal left: one
// page when both are pages (or absent) holding pageMin tuples or fewer
// between them — or a single key, which the committed trie makes a leaf at
// the depth it became alone, never an inner node over one — and an inner
// node otherwise.
func (tr *Tree) join(left, right *node, depth int) *node {
	if (left == nil || left.run != nil) && (right == nil || right.run != nil) {
		switch {
		case left == nil && right == nil:
			tr.nodes--
			return nil
		case right == nil || left == nil:
			only := left
			if left == nil {
				only = right
			}
			if len(only.run) <= pageMin || oneKey(only.run) {
				tr.nodes--
				return newPage(only.run, depth)
			}
		case len(left.run)+len(right.run) <= pageMin:
			tr.nodes -= 2
			return newPage(append(append(make([]hashedTuple, 0, len(left.run)+len(right.run)), left.run...), right.run...), depth)
		}
	}
	return newInner(left, right)
}
