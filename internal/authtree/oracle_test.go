package authtree

// The tree as it was before pages — one 80-byte node per leaf and per inner
// node of the committed trie, each hashed once at construction, hashing
// through sha256.New — kept as the oracle: it stores what the paged tree only
// re-derives, so roots and proofs are compared with an implementation that
// shares no code with the one under test below Key and Sum.

import (
	"crypto/sha256"
	"encoding/binary"
)

type oldNode struct {
	hash    Hash
	key     uint64
	entries []Entry // != nil ⇒ leaf
	left    *oldNode
	right   *oldNode
}

func oldLeafHash(key uint64, entries []Entry) Hash {
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

func oldInnerHash(left, right Hash) Hash {
	h := sha256.New()
	h.Write([]byte{tagInner})
	h.Write(left[:])
	h.Write(right[:])
	var out Hash
	h.Sum(out[:0])
	return out
}

func oldLeaf(key uint64, entries []Entry) *oldNode {
	return &oldNode{hash: oldLeafHash(key, entries), key: key, entries: entries}
}

func oldInner(left, right *oldNode) *oldNode {
	return &oldNode{hash: oldInnerHash(oldHashOf(left), oldHashOf(right)), left: left, right: right}
}

func oldHashOf(n *oldNode) Hash {
	if n == nil {
		return Hash{}
	}
	return n.hash
}

func oldInsert(n *oldNode, key uint64, vh Hash, depth int) *oldNode {
	if n == nil {
		return oldLeaf(key, []Entry{{VHash: vh, Count: 1}})
	}
	if n.entries != nil {
		if n.key == key {
			return oldLeaf(key, oldAddEntry(n.entries, vh))
		}
		return oldSplit(n, oldLeaf(key, []Entry{{VHash: vh, Count: 1}}), depth)
	}
	if bit(key, depth) == 0 {
		return oldInner(oldInsert(n.left, key, vh, depth+1), n.right)
	}
	return oldInner(n.left, oldInsert(n.right, key, vh, depth+1))
}

// oldSplit joins two leaves with distinct keys into the inner spine that
// separates them, starting at depth.
func oldSplit(a, b *oldNode, depth int) *oldNode {
	if bit(a.key, depth) != bit(b.key, depth) {
		if bit(a.key, depth) == 0 {
			return oldInner(a, b)
		}
		return oldInner(b, a)
	}
	child := oldSplit(a, b, depth+1)
	if bit(a.key, depth) == 0 {
		return oldInner(child, nil)
	}
	return oldInner(nil, child)
}

func oldCompareHash(a, b Hash) int {
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

func oldAddEntry(entries []Entry, vh Hash) []Entry {
	out := make([]Entry, 0, len(entries)+1)
	inserted := false
	for _, e := range entries {
		if !inserted {
			switch oldCompareHash(vh, e.VHash) {
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

func oldRemove(n *oldNode, key uint64, vh Hash, depth int) (*oldNode, bool) {
	if n == nil {
		return nil, false
	}
	if n.entries != nil {
		if n.key != key {
			return nil, false
		}
		entries, ok := oldDropEntry(n.entries, vh)
		if !ok {
			return nil, false
		}
		if len(entries) == 0 {
			return nil, true
		}
		return oldLeaf(key, entries), true
	}
	if bit(key, depth) == 0 {
		child, ok := oldRemove(n.left, key, vh, depth+1)
		if !ok {
			return nil, false
		}
		return oldCollapse(child, n.right), true
	}
	child, ok := oldRemove(n.right, key, vh, depth+1)
	if !ok {
		return nil, false
	}
	return oldCollapse(n.left, child), true
}

// oldCollapse restores the canonical form after a removal: an inner node
// whose only child is a leaf becomes that leaf.
func oldCollapse(left, right *oldNode) *oldNode {
	if left == nil && right == nil {
		return nil
	}
	if right == nil && left.entries != nil {
		return left
	}
	if left == nil && right.entries != nil {
		return right
	}
	return oldInner(left, right)
}

func oldDropEntry(entries []Entry, vh Hash) ([]Entry, bool) {
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

func oldProve(n *oldNode, key uint64, vh Hash) (*Proof, bool) {
	var siblings []Hash
	for depth := 0; n != nil && n.entries == nil; depth++ {
		if bit(key, depth) == 0 {
			siblings = append(siblings, oldHashOf(n.right))
			n = n.left
		} else {
			siblings = append(siblings, oldHashOf(n.left))
			n = n.right
		}
	}
	if n == nil || n.key != key {
		return nil, false
	}
	for _, e := range n.entries {
		if e.VHash != vh {
			continue
		}
		p := &Proof{Key: key, Siblings: siblings}
		// A leaf holding the proved tuple alone, once, is elided.
		if len(n.entries) > 1 || e.Count > 1 {
			p.Entries = append([]Entry(nil), n.entries...)
		}
		return p, true
	}
	return nil, false
}
