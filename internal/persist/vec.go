// Package persist holds the two structurally shared containers behind the
// versioned master's write path (internal/master, internal/relation): a
// chunked copy-on-write vector and a 16-way path-copying trie on 64-bit
// keys. Deriving a new version of either costs what the edit touches — a
// chunk, a root-to-leaf path — not the container's size, and every version
// stays readable, unchanged, by any number of goroutines. The package
// depends on nothing but the standard library.
package persist

import (
	"iter"
	"slices"
)

// Chunk geometry: 64 elements per chunk keeps both a chunk copy (512 B of
// the master's row-block pointers) and the chunk table (8 B per 64
// elements) small.
const (
	chunkBits = 6
	chunkLen  = 1 << chunkBits
	chunkMask = chunkLen - 1
)

// Vec is a chunked vector. The zero value is empty and ready to use.
//
// A Vec is a mutable handle: Set, Append and Truncate change it in place.
// Clone derives a handle in O(Len/64) that shares every chunk with its
// origin and writes in place only the chunks that differ from the origin's:
// its first write to a shared chunk copies that chunk. The origin is frozen
// by the Clone: it must not be written afterwards, since its clones read
// its chunk table to tell their own chunks from the shared ones. A handle
// that is no longer written — a published snapshot — may be read, and
// cloned, concurrently from any number of goroutines. Handles must not be
// copied by assignment once written to; use Clone.
type Vec[T any] struct {
	chunks []*[chunkLen]T // the chunks may be shared; the table is this handle's
	// base is the chunk table the handle was cloned from, never backed by
	// the same array as chunks: chunk c is the handle's own, to write in
	// place, when c is past base or differs from base[c].
	base []*[chunkLen]T
	n    int
}

// FromSlice returns a Vec over s that aliases it, full chunk by full chunk,
// without copying (a partial last chunk is copied). The Vec owns no chunk,
// so it never writes into s — s may even be read-only memory — and the
// caller must not write s afterwards.
func FromSlice[T any](s []T) Vec[T] {
	k := (len(s) + chunkMask) >> chunkBits
	tables := make([]*[chunkLen]T, 2*k)
	v := Vec[T]{chunks: tables[:0:k], base: tables[k:], n: len(s)}
	for ; len(s) >= chunkLen; s = s[chunkLen:] {
		v.chunks = append(v.chunks, (*[chunkLen]T)(s))
	}
	if len(s) > 0 {
		tail := new([chunkLen]T)
		copy(tail[:], s)
		v.chunks = append(v.chunks, tail)
	}
	copy(v.base, v.chunks)
	return v
}

// Len returns the number of elements.
func (v *Vec[T]) Len() int { return v.n }

// At returns element i; i must be in [0, Len()).
func (v *Vec[T]) At(i int) T {
	if i >= v.n {
		panic("persist: Vec index out of range")
	}
	return v.chunks[i>>chunkBits][i&chunkMask]
}

// All iterates the elements in index order.
func (v *Vec[T]) All() iter.Seq2[int, T] {
	return func(yield func(int, T) bool) {
		for c, chunk := range v.chunks {
			base := c << chunkBits
			for j := range min(chunkLen, v.n-base) {
				if !yield(base+j, chunk[j]) {
					return
				}
			}
		}
	}
}

// Clone returns a handle with the same elements that shares every chunk
// with v and owns none; v is frozen from now on. It reads v only.
func (v *Vec[T]) Clone() Vec[T] {
	return Vec[T]{chunks: slices.Clone(v.chunks), base: v.chunks, n: v.n}
}

// isOwned reports whether chunk c is this handle's own (see base).
func (v *Vec[T]) isOwned(c int) bool {
	return c >= len(v.base) || v.chunks[c] != v.base[c]
}

// writable returns chunk c ready to be written in place, copying it first
// when it may be shared.
func (v *Vec[T]) writable(c int) *[chunkLen]T {
	if !v.isOwned(c) {
		cp := *v.chunks[c]
		v.chunks[c] = &cp
	}
	return v.chunks[c]
}

// Set replaces element i; i must be in [0, Len()).
func (v *Vec[T]) Set(i int, x T) {
	if i >= v.n {
		panic("persist: Vec index out of range")
	}
	v.writable(i >> chunkBits)[i&chunkMask] = x
}

// Append adds x at the end.
func (v *Vec[T]) Append(x T) {
	c := v.n >> chunkBits
	if c == len(v.chunks) {
		v.chunks = append(v.chunks, new([chunkLen]T))
	}
	v.writable(c)[v.n&chunkMask] = x
	v.n++
}

// Truncate drops the elements from n on; n must be in [0, Len()]. Slots of a
// chunk this handle owns are zeroed so they do not pin what they held; a
// dropped slot of a shared chunk is left to whoever copies that chunk next.
func (v *Vec[T]) Truncate(n int) {
	if n > v.n {
		panic("persist: Vec truncate beyond length")
	}
	keep := (n + chunkMask) >> chunkBits
	if c := n >> chunkBits; c < keep && v.isOwned(c) {
		clear(v.chunks[c][n&chunkMask:])
	}
	clear(v.chunks[keep:])
	v.chunks = v.chunks[:keep]
	v.n = n
}
