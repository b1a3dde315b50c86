package master

import (
	"slices"
	"sort"

	"repro/internal/persist"
)

// idList is a bucket as it is read: the ascending ids of one key, in
// ascending chunks. A list no delta has edited
// since its table was built is span, one chunk: the frozen table's own
// memory, heap or mmap, uncopied. An edited list is an overlay entry's chunk
// table, which holds no empty chunk. The first id of the first chunk is the
// list's smallest — bucket[0], the witness of a uniform bucket.
type idList struct {
	span  [1][]int
	table [][]int // when non-nil, the list; span is unused
}

// chunks returns the list's chunks, for `for _, chunk := range l.chunks()`.
func (l *idList) chunks() [][]int {
	if l.table != nil {
		return l.table
	}
	return l.span[:]
}

func (l *idList) len() int {
	n := 0
	for _, chunk := range l.chunks() {
		n += len(chunk)
	}
	return n
}

// head returns the list cut down to its smallest id (empty stays empty).
func (l *idList) head() idList {
	first := l.chunks()[0]
	return idList{span: [1][]int{first[:min(1, len(first))]}}
}

// flat returns the list as one slice: the chunk itself when there is one,
// a fresh slice otherwise.
func (l *idList) flat() []int {
	if cs := l.chunks(); len(cs) == 1 {
		return cs[0]
	}
	return slices.Concat(l.chunks()...)
}

// maxChunk bounds a chunk an edit writes. An edit copies the chunk its id
// lands in and the chunk table, so on a list of n ids it allocates about
// 8·maxChunk·3/4 + 24·n/(maxChunk·3/4) bytes. Measured as the
// KB a storm delta (8 adds, 2 deletes) allocates in all on an authenticated
// HOSP master, whose mCode, mName and ST lists hold |Dm|/45 ids
// (BenchmarkApplyDeltaChain/hosp, and the same chain at 100k):
//
//	maxChunk     |Dm| = 20k   |Dm| = 100k
//	whole list   284            834
//	32           155            232
//	64           152            205
//	128          154            204
//	256          176            229
//
// Two neighbours merge when an unindex leaves them with maxChunk/2 ids or
// fewer between them, so a list that shrinks does not keep a table of crumbs.
const maxChunk = 128

// cut returns ids as a fresh chunk table with room for room more chunks:
// chunks of maxChunk ids that alias ids, copying nothing.
func cut(ids []int, room int) [][]int {
	tab := make([][]int, 0, (len(ids)+maxChunk-1)/maxChunk+room)
	for ; len(ids) > maxChunk; ids = ids[maxChunk:] {
		tab = append(tab, ids[:maxChunk:maxChunk])
	}
	if len(ids) > 0 {
		tab = append(tab, ids)
	}
	return tab
}

// editIDs returns the chunk table a planned op leaves of l: a fresh table
// that shares every chunk the op does not touch with l — a frozen span cut
// into chunks where it lies — and holds a copy of the one it does. Ids stay
// ascending, chunks non-empty.
func editIDs(op deltaOp, l idList) [][]int {
	// An op adds a chunk only by splitting a full one or by appending behind
	// a full last one.
	room := 0
	if op.kind != opUnindex && slices.ContainsFunc(l.chunks(), func(chunk []int) bool { return len(chunk) >= maxChunk }) {
		room = 1
	}
	var tab [][]int
	if l.table != nil {
		tab = append(make([][]int, 0, len(l.table)+room), l.table...)
	} else {
		tab = cut(l.span[0], room)
	}
	switch op.kind {
	case opUnindex:
		return dropID(tab, op.id)
	case opRename:
		// The swap-remove move: `from` re-inserted as `to`. A list of one
		// chunk — most lists — moves in one copy; in a longer one `from`,
		// the relation's largest id, sits in the last chunk and `to`
		// rarely does.
		if len(tab) == 1 {
			tab[0] = moveID(tab[0], op.id, op.to)
			return tab
		}
		return putID(dropID(tab, op.id), op.to)
	default:
		return putID(tab, op.id)
	}
}

// moveID returns a copy of chunk with `from` re-inserted as `to` at its
// ascending position (`to` must not already be present).
func moveID(chunk []int, from, to int) []int {
	out := make([]int, 0, len(chunk))
	placed := false
	for _, x := range chunk {
		if x == from {
			continue
		}
		if !placed && x > to {
			out, placed = append(out, to), true
		}
		out = append(out, x)
	}
	if !placed {
		out = append(out, to)
	}
	return out
}

// dropID removes id from the chunk of tab holding it (tab unchanged when none
// does): a copy of the chunk without it, merged with a neighbour when the two
// are small.
func dropID(tab [][]int, id int) [][]int {
	c := sort.Search(len(tab), func(c int) bool { return tab[c][len(tab[c])-1] >= id })
	if c == len(tab) {
		return tab
	}
	i, found := slices.BinarySearch(tab[c], id)
	if !found {
		return tab
	}
	before, after := tab[c][:i], tab[c][i+1:]
	switch n := len(before) + len(after); {
	case n == 0:
		return slices.Delete(tab, c, c+1)
	case c+1 < len(tab) && n+len(tab[c+1]) <= maxChunk/2:
		tab[c] = slices.Concat(before, after, tab[c+1])
		return slices.Delete(tab, c+1, c+2)
	case c > 0 && len(tab[c-1])+n <= maxChunk/2:
		tab[c-1] = slices.Concat(tab[c-1], before, after)
		return slices.Delete(tab, c, c+1)
	}
	tab[c] = slices.Concat(before, after)
	return tab
}

// putID adds id, which the list does not hold, to the first chunk of tab
// that ends above it, or the last: a copy of that chunk with id in place —
// two halves of it when it was full, or a chunk of its own for an id appended
// behind a full last chunk.
func putID(tab [][]int, id int) [][]int {
	c := sort.Search(len(tab), func(c int) bool { return tab[c][len(tab[c])-1] > id })
	if c == len(tab) {
		if c == 0 || len(tab[c-1]) >= maxChunk {
			return append(tab, []int{id})
		}
		c--
	}
	i, _ := slices.BinarySearch(tab[c], id)
	chunk := slices.Concat(tab[c][:i], []int{id}, tab[c][i:])
	if len(chunk) <= maxChunk {
		tab[c] = chunk
		return tab
	}
	half := len(chunk) / 2
	tab = slices.Insert(tab, c+1, chunk[half:])
	tab[c] = chunk[:half:half]
	return tab
}

// layered is the copy-on-write map of one index shard, uint64 projection
// hash → tuple ids. It has two layers, both immutable values:
//
//	over   — this snapshot's delta overlay, a path-copying trie from a key
//	         to its list's chunk table (a key present here shadows the table
//	         below, including with an empty list);
//	frozen — the canonical table (table.go), shared by every snapshot
//	         derived since it was built, compacted or loaded.
//
// ApplyDelta forks every shard's pair by copying the struct: an edit then
// costs the trie path to its key, one chunk and the chunk table, whatever
// the overlay and the list hold. Once the overlay has outgrown the table
// enough (fork), both compact into one table.
type layered struct {
	over   persist.Map[[][]int]
	frozen table
}

// list resolves k's ids through the layers.
func (l *layered) list(k uint64) idList {
	if l.over.Len() > 0 {
		if tab, ok := l.over.Get(k); ok {
			if len(tab) == 0 {
				return idList{} // a tombstone
			}
			return idList{table: tab}
		}
	}
	return idList{span: [1][]int{l.frozen.get(k)}}
}

// put shadows k's list in this snapshot's overlay with a chunk table no
// other snapshot holds (its chunks may be shared), as part of the delta's
// batch of edits.
func (l *layered) put(batch *persist.Edit, k uint64, tab [][]int) {
	l.over = l.over.SetIn(batch, k, tab)
}

// fork derives the next snapshot's view: both layers shared — or compacted
// into one table once the overlay has grown past a quarter of the table's
// keys plus 1/64 of its ids: a rebuild copies every id, so the overlay
// growth that pays for it scales with them (few keys, long lists: never).
func (l *layered) fork() layered {
	if n := l.over.Len(); n*4 > l.frozen.nkeys+len(l.frozen.ids)/16+16 {
		return layered{frozen: l.compact()}
	}
	return *l
}

// compact returns the canonical table of the merged view: the table as it
// stands under an empty overlay, otherwise a new one filled straight from the
// lists, chunk by chunk, keys ascending — buildTableSorting's layout without
// a (key, id) pair per id to sort.
func (l *layered) compact() table {
	if l.over.Len() == 0 {
		return l.frozen
	}
	nkeys, nids := l.mergedSize()
	keys := make([]uint64, 0, nkeys)
	l.lists(func(k uint64, _ idList) { keys = append(keys, k) })
	slices.Sort(keys)
	t := newTable(nkeys, nids)
	for _, k := range keys {
		off := len(t.ids)
		list := l.list(k)
		for _, chunk := range list.chunks() {
			t.ids = append(t.ids, chunk...)
		}
		t.place(k, off, len(t.ids)-off)
	}
	return t
}

// mergedSize counts the keys and ids compact's table would hold without
// building it: O(overlay), one table probe per overlay key.
func (l *layered) mergedSize() (nkeys, nids int) {
	nkeys, nids = l.frozen.nkeys, len(l.frozen.ids)
	for k, tab := range l.over.All() {
		if old := l.frozen.get(k); len(old) > 0 {
			nkeys, nids = nkeys-1, nids-len(old)
		}
		if len(tab) > 0 {
			list := idList{table: tab}
			nkeys, nids = nkeys+1, nids+list.len()
		}
	}
	return nkeys, nids
}

// size returns the total number of ids across all live keys.
func (l *layered) size() int {
	_, nids := l.mergedSize()
	return nids
}

// lists calls fn for every live (key, list) pair resolved through the
// layers, skipping tombstones. Order is unspecified.
func (l *layered) lists(fn func(k uint64, list idList)) {
	l.frozen.each(func(k uint64, v []int) {
		if _, shadowed := l.over.Get(k); !shadowed {
			fn(k, idList{span: [1][]int{v}})
		}
	})
	for k, tab := range l.over.All() {
		if len(tab) > 0 {
			fn(k, idList{table: tab})
		}
	}
}
