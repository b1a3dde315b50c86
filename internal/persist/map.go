package persist

import (
	"iter"
	"math/bits"
	"slices"
)

// Map is an immutable map from uint64 keys to V: a 16-way trie consuming
// the key four bits at a time, low bits first (dense ids and hashes both
// spread evenly there). Set returns a new Map that shares every node off
// the root-to-key path with the old one, which is unchanged, so deriving
// a version costs O(log16 n) small node copies and keeping one costs only
// what it does not share. The zero Map is empty; a Map is a two-word value,
// copy it freely. There is no delete: the overlays this serves shadow a
// key with an empty value instead.
//
// A node holds up to 16 slots, packed: a slot is either an entry (its bit
// set in data, its (key, value) in ents) or a child (bit in kids, pointer
// in sub). Entries live in the shallowest node where their nibble prefix is
// unique, so lookups rarely walk more than three levels at any size the
// overlays reach.
type Map[V any] struct {
	root *node[V]
	n    int
}

// Edit names one batch of SetIn calls: a delta deriving a snapshot makes one
// and drops it when the snapshot is published. The nodes a batch creates
// carry its Edit, and nothing but later calls of the same batch can reach
// them, so those update them in place instead of copying them again — the
// root once per batch, not once per key.
type Edit struct{ _ byte }

type node[V any] struct {
	data, kids uint16
	// ownEnts and ownSub: the array is this node's alone (made under the
	// node's edit), not one a copy still shares with the node it came from.
	// A copy that cloned both arrays up front would need neither flag and
	// allocate a tenth more per storm delta (BenchmarkApplyDeltaChain/hosp:
	// 216 KB against 196).
	ownEnts, ownSub bool
	edit            *Edit
	ents            []entry[V]
	sub             []*node[V]
}

type entry[V any] struct {
	key uint64
	val V
}

// Len returns the number of keys.
func (m Map[V]) Len() int { return m.n }

// Get returns k's value.
func (m Map[V]) Get(k uint64) (v V, ok bool) {
	rest := k
	for n := m.root; n != nil; rest >>= 4 {
		bit := uint16(1) << (rest & 15)
		if n.data&bit != 0 {
			if e := &n.ents[bits.OnesCount16(n.data&(bit-1))]; e.key == k {
				return e.val, true
			}
			break
		}
		if n.kids&bit == 0 {
			break
		}
		n = n.sub[bits.OnesCount16(n.kids&(bit-1))]
	}
	return v, false
}

// Set returns the map with k bound to v.
func (m Map[V]) Set(k uint64, v V) Map[V] { return m.SetIn(nil, k, v) }

// SetIn is Set as part of the batch e: the map it is called on must be the
// one the batch's previous SetIn returned (or the batch's starting point), and
// every version older than the batch stays unchanged as under Set. A nil e
// is no batch.
func (m Map[V]) SetIn(e *Edit, k uint64, v V) Map[V] {
	root, added := m.root.set(e, k, v, 0)
	if added {
		return Map[V]{root, m.n + 1}
	}
	return Map[V]{root, m.n}
}

// set returns n (nil = empty) with k bound to v — a copy, or n itself when
// batch e made it; shift is how many key bits the path to n consumed.
func (n *node[V]) set(e *Edit, k uint64, v V, shift uint) (_ *node[V], added bool) {
	bit := uint16(1) << (k >> shift & 15)
	if n == nil {
		return &node[V]{data: bit, ownEnts: true, ownSub: true, edit: e, ents: []entry[V]{{k, v}}}, true
	}
	if e == nil || n.edit != e {
		cp := *n
		cp.edit, cp.ownEnts, cp.ownSub = e, false, false
		n = &cp
	}
	ei := bits.OnesCount16(n.data & (bit - 1))
	si := bits.OnesCount16(n.kids & (bit - 1))
	switch {
	case n.data&bit != 0 && n.ents[ei].key == k:
		if !n.ownEnts {
			n.ents, n.ownEnts = slices.Clone(n.ents), true
		}
		n.ents[ei].val = v
	case n.data&bit != 0:
		// Two keys share the slot: both move one level down.
		child, _ := (*node[V])(nil).set(e, n.ents[ei].key, n.ents[ei].val, shift+4)
		child, _ = child.set(e, k, v, shift+4)
		n.data, n.kids = n.data&^bit, n.kids|bit
		n.ents, n.ownEnts = append(append(make([]entry[V], 0, len(n.ents)-1), n.ents[:ei]...), n.ents[ei+1:]...), true
		n.sub, n.ownSub = insertAt(n.sub, si, child), true
		added = true
	case n.kids&bit != 0:
		var child *node[V]
		if child, added = n.sub[si].set(e, k, v, shift+4); child != n.sub[si] {
			if !n.ownSub {
				n.sub, n.ownSub = slices.Clone(n.sub), true
			}
			n.sub[si] = child
		}
	default:
		n.data |= bit
		n.ents, n.ownEnts = insertAt(n.ents, ei, entry[V]{k, v}), true
		added = true
	}
	return n, added
}

// insertAt returns a copy of s with x at position i.
func insertAt[T any](s []T, i int, x T) []T {
	out := make([]T, len(s)+1)
	copy(out, s[:i])
	out[i] = x
	copy(out[i+1:], s[i:])
	return out
}

// All iterates the (key, value) pairs in unspecified order.
func (m Map[V]) All() iter.Seq2[uint64, V] {
	return func(yield func(uint64, V) bool) { m.root.each(yield) }
}

func (n *node[V]) each(yield func(uint64, V) bool) bool {
	if n == nil {
		return true
	}
	for i := range n.ents {
		if !yield(n.ents[i].key, n.ents[i].val) {
			return false
		}
	}
	for _, c := range n.sub {
		if !c.each(yield) {
			return false
		}
	}
	return true
}
