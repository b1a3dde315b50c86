package master

import (
	"slices"
	"unsafe"
)

// MemStats is a snapshot's memory accounting: where the bytes of the
// master's cells and lookup structures live, split so the heap-vs-arena
// tradeoff is observable in production (certainfixd exposes this on
// /healthz), not just in benchmarks. Counts are logical (live keys and
// ids); cell and index bytes are the exact sizes of the id rows and the
// frozen tables' backing arrays plus what the overlay entries own.
type MemStats struct {
	// Epoch and Tuples identify the snapshot.
	Epoch  uint64 `json:"epoch"`
	Tuples int    `json:"tuples"`
	Shards int    `json:"shards"`

	// CellBytes is Dm itself: one uint32 id per cell plus a pointer per
	// block of rows.
	CellBytes int64 `json:"cell_bytes"`

	// Symbols is the interning table the cells point into: distinct values,
	// and the bytes of their string payloads (a counter kept as values are
	// interned), value headers and lookup slots.
	Symbols     int   `json:"symbols"`
	SymbolBytes int64 `json:"symbol_bytes"`

	// IndexKeys/IndexIDs count bucket keys and bucket entries across all
	// indexes — the rules' own and the one-column ones condition (c) reads
	// (a key has one bucket, whatever Shards is);
	// IndexBytes is the tables' slot and id arrays plus, per overlay entry,
	// its key, its chunk table and the chunks deltas wrote — a chunk that
	// still aliases the table's span is the table's, counted once.
	IndexKeys  int   `json:"index_keys"`
	IndexIDs   int   `json:"index_ids"`
	IndexBytes int64 `json:"index_bytes"`

	// NonUniformBuckets counts the entries of the exception tables that
	// exist — those of the indexes a value probe reads: buckets whose tuples
	// disagree on a rule's rhs column (Dm breaks the functional contract of
	// §2 there) or collide on the key hash. Probes of those buckets scan;
	// zero on a consistent master.
	NonUniformBuckets int `json:"non_uniform_buckets"`

	// ArenaBacked reports whether the snapshot chain is rooted in a loaded
	// master arena; ArenaBytes is the backing image size and ArenaMapped
	// whether it is an mmap (pages shared, evictable) rather than a heap
	// copy. For an arena-backed snapshot the id rows and the tables live
	// INSIDE the arena bytes, not on the Go heap, until a delta replaces a
	// row or compaction rewrites a shard.
	ArenaBacked bool  `json:"arena_backed"`
	ArenaMapped bool  `json:"arena_mapped"`
	ArenaBytes  int64 `json:"arena_bytes"`

	// Authenticated reports whether the snapshot carries a sparse-Merkle
	// commitment (WithAuth lineages and flag-set arena images); Root is its
	// hex form, empty when unauthenticated, and AuthBytes what the tree's
	// pages and inner nodes occupy (a counter the tree keeps as it is built
	// and updated).
	Authenticated bool   `json:"authenticated"`
	Root          string `json:"root,omitempty"`
	AuthBytes     int64  `json:"auth_bytes"`
}

// MemStats walks the snapshot's structures and returns their accounting.
// Cost is O(keys of the structures), not O(|Dm|·arity), and it allocates
// nothing that grows with the master: cell and symbol bytes are arithmetic
// and a counter, index sizes come from the layered maps. Safe on any snapshot,
// concurrently with probes.
func (d *Data) MemStats() MemStats {
	n := d.rows.Len()
	ms := MemStats{
		Epoch:       d.epoch,
		Tuples:      n,
		Shards:      d.nshards,
		CellBytes:   4*int64(n)*int64(d.schema.Arity()) + 8*int64(d.rows.blocks.Len()),
		Symbols:     d.syms.Len(),
		SymbolBytes: d.syms.Bytes(),
	}
	for s := range d.shards {
		d.shards[s].addStats(&ms.IndexKeys, &ms.IndexIDs, &ms.IndexBytes)
		ms.NonUniformBuckets += len(d.shards[s].exc)
	}
	if d.arena != nil {
		ms.ArenaBacked = true
		ms.ArenaMapped = d.arena.mapped
		ms.ArenaBytes = int64(len(d.arena.data))
	}
	if root, ok := d.AuthRoot(); ok {
		ms.Authenticated = true
		ms.Root = root.String()
		ms.AuthBytes = d.auth.Bytes()
	}
	return ms
}

// addStats adds the pair's live key and id counts and its bytes: the table's
// backing arrays plus each overlay entry's key, chunk table and the chunks
// that are not stretches of the key's frozen span — cut lays those at
// multiples of maxChunk.
func (l *layered) addStats(keys, ids *int, bytes *int64) {
	nkeys, nids := l.mergedSize()
	*keys, *ids = *keys+nkeys, *ids+nids
	idBytes := int64(unsafe.Sizeof(int(0)))
	*bytes += 8*int64(len(l.frozen.slots)) + idBytes*int64(len(l.frozen.ids))
	for k, tab := range l.over.All() {
		*bytes += 8 + int64(unsafe.Sizeof(tab)) + int64(cap(tab))*int64(unsafe.Sizeof(tab))
		span := l.frozen.get(k)
		for _, chunk := range tab {
			i, found := slices.BinarySearch(span, chunk[0])
			if !found || i%maxChunk != 0 || &span[i] != &chunk[0] {
				*bytes += idBytes * int64(cap(chunk))
			}
		}
	}
}
