package master

import (
	"iter"
	"unsafe"

	"repro/internal/persist"
)

// Row blocks: a block holds the cells of blockRows consecutive tuples, so a
// delta's first write to a shared block copies blockRows·arity ids, and the
// vector of blocks behind a snapshot of |Dm| rows has |Dm|/blockRows
// elements, whose chunk table a delta's clone copies. At 16 rows a HOSP
// block (arity 19) is 1,216 B, less than the 1.5 KB chunk of 64 row headers
// a delta copied when every row had one; at 32 it would be 2.4 KB.
const (
	blockBits = 4
	blockRows = 1 << blockBits
	blockMask = blockRows - 1
)

// rowVec is Dm's cells: tuple i's arity ids sit at (i mod blockRows)·arity
// in block i/blockRows, and the blocks sit in a chunked copy-on-write
// vector, each as a pointer to its first cell. There is no header per row:
// a row is a view computed from its block. A Builder's blocks are its own
// allocations, a loaded snapshot's are the image's rows section in place,
// and a derived snapshot shares every block with its parent until it writes
// one: it copies the block first, so a row read from any other snapshot
// never changes under its reader. Nothing past row Len-1 is read, so an
// image's last block may end there.
//
// A rowVec is a mutable handle with persist.Vec's ownership rule: grow, Set
// and Truncate change it in place, Clone freezes the origin, and a handle
// that is no longer written may be read from any number of goroutines.
type rowVec struct {
	blocks persist.Vec[*uint32]
	// base is the block vector the handle was cloned from, empty for a
	// Builder's: block k is the handle's own, to write in place, when k is
	// past base or its pointer differs from base's.
	base  persist.Vec[*uint32]
	arity int
	n     int
}

// viewRows returns the n rows of cells, n×arity ids row-major, as blocks
// that alias cells. The handle is a clone of that view and owns no block,
// so cells is never written through it.
func viewRows(cells []uint32, n, arity int) rowVec {
	blocks := make([]*uint32, (n+blockMask)>>blockBits)
	for k := range blocks {
		blocks[k] = &cells[k*blockRows*arity]
	}
	view := rowVec{blocks: persist.FromSlice(blocks), arity: arity, n: n}
	return view.Clone()
}

// Len returns the number of rows.
func (r *rowVec) Len() int { return r.n }

// cells returns the cells of rows [lo, hi) of block k; those rows must
// exist.
func (r *rowVec) cells(k, lo, hi int) []uint32 {
	p := unsafe.Add(unsafe.Pointer(r.blocks.At(k)), 4*lo*r.arity)
	return unsafe.Slice((*uint32)(p), (hi-lo)*r.arity)
}

// At returns row i's cells, a view the caller must not write; i must be in
// [0, Len()).
func (r *rowVec) At(i int) []uint32 {
	if uint(i) >= uint(r.n) {
		panic("master: row index out of range")
	}
	j := i & blockMask
	return r.cells(i>>blockBits, j, j+1)
}

// All iterates the rows in id order.
func (r *rowVec) All() iter.Seq2[int, []uint32] {
	return func(yield func(int, []uint32) bool) {
		for k := range r.blocks.Len() {
			base := k << blockBits
			block := r.cells(k, 0, min(blockRows, r.n-base))
			for j := 0; len(block) > 0; j++ {
				if !yield(base+j, block[:r.arity:r.arity]) {
					return
				}
				block = block[r.arity:]
			}
		}
	}
}

// Clone returns a handle with the same rows that shares every block with r
// and owns none; r is frozen from now on. It reads r only.
func (r *rowVec) Clone() rowVec {
	return rowVec{blocks: r.blocks.Clone(), base: r.blocks, arity: r.arity, n: r.n}
}

// isOwned reports whether block k is this handle's own (see base).
func (r *rowVec) isOwned(k int) bool {
	return k >= r.base.Len() || r.blocks.At(k) != r.base.At(k)
}

// writable returns row i's cells ready to be written in place. A block this
// handle does not own is copied first, its rows below Len.
func (r *rowVec) writable(i int) []uint32 {
	k, j := i>>blockBits, i&blockMask
	if !r.isOwned(k) {
		block := make([]uint32, blockRows*r.arity)
		copy(block, r.cells(k, 0, min(blockRows, r.n-k<<blockBits)))
		r.blocks.Set(k, &block[0])
	}
	return r.cells(k, j, j+1)
}

// grow appends a row and returns its cells for the caller to fill. The
// view stays the row's for as long as the handle is not written at that
// row again: its block is the handle's own.
func (r *rowVec) grow() []uint32 {
	if r.n>>blockBits == r.blocks.Len() {
		block := make([]uint32, blockRows*r.arity)
		r.blocks.Append(&block[0])
	}
	row := r.writable(r.n)
	r.n++
	return row
}

// Set overwrites row i with a copy of row's cells; i must be in [0, Len()).
func (r *rowVec) Set(i int, row []uint32) {
	if uint(i) >= uint(r.n) {
		panic("master: row index out of range")
	}
	copy(r.writable(i), row)
}

// Truncate drops the rows from n on; n must be in [0, Len()]. A block left
// empty is dropped; the cells of a partly dropped one stay until a later
// row overwrites them.
func (r *rowVec) Truncate(n int) {
	if n > r.n {
		panic("master: row truncate beyond length")
	}
	r.blocks.Truncate((n + blockMask) >> blockBits)
	r.n = n
}
