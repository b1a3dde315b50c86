// Package authtree commits a master relation to a single 32-byte root: a
// compact sparse Merkle tree over the content hashes of its tuples, with
// copy-on-write nodes so ApplyDelta can maintain the root incrementally
// per epoch — O(delta · depth) hashing, never a rebuild — exactly the way
// it already maintains postings.
//
// Layout. The tree is a collapsed binary trie over 64-bit tuple keys,
// most-significant bit first. A key is the content-pure FNV chain the
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
//     children split on the next key bit. Chains of one-child inner nodes
//     are what "collapsed" forbids below a leaf but requires along shared
//     key prefixes, and removal restores the canonical form (an inner node
//     left with a single leaf child becomes that leaf).
//
// Hashing is domain separated: leafHash = H(0x00 ‖ key ‖ n ‖ entries),
// innerHash = H(0x01 ‖ left ‖ right). Nodes are immutable and hashed once
// at construction; an update copies the O(depth) spine and shares every
// untouched subtree with the previous epoch, so retaining a snapshot ring
// of authenticated epochs costs O(delta · depth) nodes per epoch, not a
// tree per epoch.
//
// An inclusion proof for a tuple is its leaf's entry list plus the sibling
// hashes along the spine; Prove emits one and VerifyInclusion checks it
// against a root with no access to the tree — the client-side half of
// "verify a fix without trusting the server".
package authtree

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"runtime"
	"slices"

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
	h := sha256.New()
	var buf [10]byte
	binary.LittleEndian.PutUint32(buf[:4], uint32(len(t)))
	h.Write(buf[:4])
	for _, v := range t {
		switch v.Kind() {
		case relation.KindNull:
			buf[0] = 0x00
			h.Write(buf[:1])
		case relation.KindString:
			s := v.Str()
			buf[0] = 0x01
			binary.LittleEndian.PutUint32(buf[1:5], uint32(len(s)))
			h.Write(buf[:5])
			h.Write([]byte(s))
		default:
			buf[0] = 0x02
			binary.LittleEndian.PutUint64(buf[1:9], uint64(v.Int64()))
			h.Write(buf[:9])
		}
	}
	var out Hash
	h.Sum(out[:0])
	return out
}

// Entry is one line of a leaf's multiset commitment: a tuple content hash
// and how many identical tuples the master holds.
type Entry struct {
	VHash Hash
	Count uint64
}

// node is an immutable tree node; exactly one of the two forms is
// populated. entries != nil ⇒ leaf (key, entries); otherwise inner
// (left/right, either possibly nil = empty subtree).
type node struct {
	hash    Hash
	key     uint64
	entries []Entry
	left    *node
	right   *node
}

func leafHash(key uint64, entries []Entry) Hash {
	h := sha256.New()
	var buf [13]byte
	buf[0] = tagLeaf
	binary.LittleEndian.PutUint64(buf[1:9], key)
	binary.LittleEndian.PutUint32(buf[9:13], uint32(len(entries)))
	h.Write(buf[:])
	var eb [8]byte
	for _, e := range entries {
		h.Write(e.VHash[:])
		binary.LittleEndian.PutUint64(eb[:], e.Count)
		h.Write(eb[:])
	}
	var out Hash
	h.Sum(out[:0])
	return out
}

func innerHash(left, right Hash) Hash {
	h := sha256.New()
	h.Write([]byte{tagInner})
	h.Write(left[:])
	h.Write(right[:])
	var out Hash
	h.Sum(out[:0])
	return out
}

func newLeaf(key uint64, entries []Entry) *node {
	return &node{hash: leafHash(key, entries), key: key, entries: entries}
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
	root *node
	size int
}

// New returns an empty tree.
func New() *Tree { return &Tree{} }

// Build commits every tuple of a relation — the from-scratch path of
// construction, of arena loads (recovery and follower bootstrap recompute
// the root and verify it) and of lineages that turn authentication on. It
// is one pass, not n inserts: the tuples are hashed in parallel, the
// (key, vhash) pairs sorted, and the canonical trie assembled bottom-up
// from the sorted run, so every node is hashed exactly once and no
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

// hashedTuple is a tuple as the trie sees it: where it goes and what it
// commits to.
type hashedTuple struct {
	key   uint64
	vhash Hash
}

// parallelKeys is the subtree size below which bottom-up assembly stays on
// one goroutine: a subtree of a few thousand keys is well under a
// millisecond of hashing.
const parallelKeys = 4096

// buildHashed builds the tree of a multiset of hashed tuples (sorted in
// place). Keys ascend in trie order — most significant bit first — so every
// subtree is a contiguous run: the run's keys agree on the bits above its
// depth, and the first key with the depth's bit set splits it into its two
// children. Runs of parallelKeys or more under a common prefix are
// assembled in parallel, the few levels above them serially.
func buildHashed(hashed []hashedTuple) *Tree {
	slices.SortFunc(hashed, func(a, b hashedTuple) int {
		if c := cmp.Compare(a.key, b.key); c != 0 {
			return c
		}
		return compareHash(a.vhash, b.vhash)
	})
	// cut is the depth whose 2^cut prefixes are built as parallel jobs.
	cut := 0
	for len(hashed)>>cut >= parallelKeys && cut < 16 {
		cut++
	}
	var subs []*node
	if cut > 0 && runtime.GOMAXPROCS(0) > 1 {
		subs, _ = parallel.Map(1<<cut, 0, func(p int) (*node, error) {
			lo := firstKeyAtOrAbove(hashed, uint64(p)<<(Depth-cut))
			hi := len(hashed)
			if p+1 < 1<<cut {
				hi = firstKeyAtOrAbove(hashed, uint64(p+1)<<(Depth-cut))
			}
			return assemble(hashed[lo:hi], cut, 0, nil), nil
		})
	}
	return &Tree{root: assemble(hashed, 0, cut, subs), size: len(hashed)}
}

func firstKeyAtOrAbove(run []hashedTuple, key uint64) int {
	i, _ := slices.BinarySearchFunc(run, key, func(h hashedTuple, key uint64) int { return cmp.Compare(h.key, key) })
	return i
}

// assemble returns the canonical subtree at depth over a sorted run whose
// keys share their first depth bits: nothing for an empty run, a leaf for a
// single key (however many tuples carry it), otherwise an inner node over
// the two halves the depth's bit splits the run into — one-armed when all
// keys fall on one side, exactly the spine split and collapse maintain.
// With subs given, the subtrees at depth cut are taken from it by prefix.
func assemble(run []hashedTuple, depth, cut int, subs []*node) *node {
	switch {
	case len(run) == 0:
		return nil
	case run[0].key == run[len(run)-1].key:
		return newLeaf(run[0].key, countEntries(run))
	case subs != nil && depth == cut:
		return subs[run[0].key>>(Depth-cut)]
	}
	mid := firstKeyAtOrAbove(run, run[0].key>>(Depth-depth)<<(Depth-depth)|1<<(Depth-1-depth))
	return newInner(assemble(run[:mid], depth+1, cut, subs), assemble(run[mid:], depth+1, cut, subs))
}

// countEntries folds a vhash-sorted run of one key into its leaf entries.
func countEntries(run []hashedTuple) []Entry {
	distinct := 1
	for i := 1; i < len(run); i++ {
		if run[i].vhash != run[i-1].vhash {
			distinct++
		}
	}
	entries := make([]Entry, 0, distinct)
	for _, h := range run {
		if n := len(entries); n > 0 && entries[n-1].VHash == h.vhash {
			entries[n-1].Count++
		} else {
			entries = append(entries, Entry{VHash: h.vhash, Count: 1})
		}
	}
	return entries
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

// Insert returns a tree additionally committing one tuple. The receiver
// is unchanged.
func (tr *Tree) Insert(t relation.Tuple) *Tree {
	return tr.insertHashed(Key(t), Sum(t))
}

func (tr *Tree) insertHashed(key uint64, vh Hash) *Tree {
	size := 0
	var root *node
	if tr != nil {
		size, root = tr.size, tr.root
	}
	return &Tree{root: insert(root, key, vh, 0), size: size + 1}
}

func insert(n *node, key uint64, vh Hash, depth int) *node {
	if n == nil {
		return newLeaf(key, []Entry{{VHash: vh, Count: 1}})
	}
	if n.entries != nil { // leaf
		if n.key == key {
			return newLeaf(key, addEntry(n.entries, vh))
		}
		// Distinct keys sharing a prefix: descend until they diverge,
		// building the (possibly one-armed) inner spine top-down.
		return split(n, newLeaf(key, []Entry{{VHash: vh, Count: 1}}), depth)
	}
	if bit(key, depth) == 0 {
		return newInner(insert(n.left, key, vh, depth+1), n.right)
	}
	return newInner(n.left, insert(n.right, key, vh, depth+1))
}

// split joins two leaves with distinct keys into the inner spine that
// separates them, starting at depth.
func split(a, b *node, depth int) *node {
	if bit(a.key, depth) != bit(b.key, depth) {
		if bit(a.key, depth) == 0 {
			return newInner(a, b)
		}
		return newInner(b, a)
	}
	child := split(a, b, depth+1)
	if bit(a.key, depth) == 0 {
		return newInner(child, nil)
	}
	return newInner(nil, child)
}

// addEntry returns a copy of entries with vh's count incremented, keeping
// the vhash order that makes the commitment canonical.
func addEntry(entries []Entry, vh Hash) []Entry {
	out := make([]Entry, 0, len(entries)+1)
	inserted := false
	for _, e := range entries {
		if !inserted {
			switch compareHash(vh, e.VHash) {
			case 0:
				out = append(out, Entry{VHash: vh, Count: e.Count + 1})
				inserted = true
				continue
			case -1:
				out = append(out, Entry{VHash: vh, Count: 1})
				inserted = true
			}
		}
		out = append(out, e)
	}
	if !inserted {
		out = append(out, Entry{VHash: vh, Count: 1})
	}
	return out
}

// Remove returns a tree with one instance of the tuple removed, or false
// when the tuple is not committed (which callers treat as a broken
// tree-mirrors-relation invariant). The receiver is unchanged.
func (tr *Tree) Remove(t relation.Tuple) (*Tree, bool) {
	if tr == nil || tr.root == nil {
		return tr, false
	}
	root, ok := remove(tr.root, Key(t), Sum(t), 0)
	if !ok {
		return tr, false
	}
	return &Tree{root: root, size: tr.size - 1}, true
}

func remove(n *node, key uint64, vh Hash, depth int) (*node, bool) {
	if n == nil {
		return nil, false
	}
	if n.entries != nil { // leaf
		if n.key != key {
			return nil, false
		}
		entries, ok := dropEntry(n.entries, vh)
		if !ok {
			return nil, false
		}
		if len(entries) == 0 {
			return nil, true
		}
		return newLeaf(key, entries), true
	}
	if bit(key, depth) == 0 {
		child, ok := remove(n.left, key, vh, depth+1)
		if !ok {
			return nil, false
		}
		return collapse(child, n.right), true
	}
	child, ok := remove(n.right, key, vh, depth+1)
	if !ok {
		return nil, false
	}
	return collapse(n.left, child), true
}

// collapse restores the canonical form after a removal: an inner node
// whose only child is a leaf becomes that leaf (the one-armed spine above
// a lone key disappears); with two live children, or a lone inner child
// (≥ 2 keys below, still a genuine branch point), the node stays.
func collapse(left, right *node) *node {
	if left == nil && right == nil {
		return nil
	}
	if right == nil && left.entries != nil {
		return left
	}
	if left == nil && right.entries != nil {
		return right
	}
	return newInner(left, right)
}

// dropEntry returns a copy of entries with one count of vh removed, or
// false when vh is absent.
func dropEntry(entries []Entry, vh Hash) ([]Entry, bool) {
	for i, e := range entries {
		if e.VHash == vh {
			out := make([]Entry, 0, len(entries))
			out = append(out, entries[:i]...)
			if e.Count > 1 {
				out = append(out, Entry{VHash: vh, Count: e.Count - 1})
			}
			return append(out, entries[i+1:]...), true
		}
	}
	return nil, false
}

func compareHash(a, b Hash) int {
	for i := range a {
		switch {
		case a[i] < b[i]:
			return -1
		case a[i] > b[i]:
			return 1
		}
	}
	return 0
}
