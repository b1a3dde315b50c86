package master

// This file implements the sharded layout and the parallel build pipeline.
//
// Every index is partitioned into P shards and routes by ITS OWN KEY: an
// entry lives in the shard keyShard picks from its projection hash. A key
// therefore has exactly one bucket, holding all its ids ascending, at
// every P — the "hash table that stores tm[Xm] as a key" of §5.1 — so a
// probe reads one shard and P never shows on the read path: same buckets,
// same allocations, same MemStats counts. One
// tuple lives in a different shard per index; tuple ids stay global
// positions in the relation.
//
// What P buys is on the write side: compaction rewrites 1/P of an index
// (fork flattens the shard whose overlay outgrew its table, not the whole
// index), so a delta's tail latency grows with |Dm|/P, not |Dm|. P is
// therefore a function of the master's size, not of the host: a build over
// n tuples takes shardsFor(n) shards, and a lineage keeps that P through
// ApplyDelta, checkpoints and LoadArena. Builds are parallel per index at
// every P.
//
// Shards are iterated only by whole-index walks: build, fork/compaction,
// arena save/load, MemStats and the exception rebuild. A snapshot holds the
// shards of all its indexes in one slice (Data.shards), so a delta forks
// them with one allocation.

import (
	"repro/internal/parallel"
	"repro/internal/relation"
	"repro/internal/rule"
)

// MaxShards bounds the shard count a build may take and an arena header
// may claim.
const MaxShards = 256

// rowsPerShard is the master size one shard is sized for: below it a delta's
// compaction is cheap enough that one table serves, and every rowsPerShard
// tuples past it add a shard.
const rowsPerShard = 1 << 15

// shardsFor is the shard count of a master built over n tuples:
// ceil(n/rowsPerShard), within [1, MaxShards].
func shardsFor(n int) int {
	return min(max((n+rowsPerShard-1)/rowsPerShard, 1), MaxShards)
}

// BuildOption configures snapshot construction (New / NewForRules).
type BuildOption func(*buildConfig)

type buildConfig struct {
	shards int // 0: shardsFor(|Dm|)
	auth   bool
}

// WithShards overrides the shard count a build derives from its size, for
// the tests and benchmarks that hold one layout against another; p <= 0
// keeps the derived count, and p is clamped to [1, MaxShards]. Probes read
// one shard whatever p is, and every p produces byte-identical results.
func WithShards(p int) BuildOption {
	return func(c *buildConfig) { c.shards = min(max(p, 0), MaxShards) }
}

// WithAuth authenticates the snapshot lineage: construction commits the
// relation to a sparse-Merkle root (see internal/authtree) and ApplyDelta
// maintains it copy-on-write alongside the indexes, so every epoch
// carries a 32-byte commitment and tuples gain inclusion proofs. Probe
// paths are untouched; builds and deltas pay O(n·log n) / O(delta·log n)
// extra hashing, which a memory-only snapshot skips unless asked — a
// durable lineage (OpenDurable) always pays it.
func WithAuth() BuildOption {
	return func(c *buildConfig) { c.auth = true }
}

func resolveBuildConfig(opts []BuildOption) buildConfig {
	cfg := buildConfig{}
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// keyShard is the routing policy, all of it: the shard of p that holds key
// k, an index's projection hash. The top bits of a Fibonacci multiply depend
// on every bit of k, so they are independent of the k&mask slot bits a
// shard's table (table.go) uses: per-shard probe lengths are those of an
// unsharded table.
// It is a pure function of the key, so a key's shard is the same in every
// snapshot of a lineage and in every image of it; p = 1 yields 0.
func keyShard(k uint64, p int) int {
	return int((k * 0x9E3779B97F4A7C15 >> 32) * uint64(p) >> 32)
}

// shard returns the one shard holding h's bucket.
func (idx index) shard(h uint64) *indexShard {
	return &idx.shards[keyShard(h, len(idx.shards))]
}

// Builder is the one way a snapshot's cells come to be outside ApplyDelta
// and LoadArena: rows are fed in order, each cell interned as it arrives,
// and Finish builds the planned structures over the id rows. Ids come
// out in the rows' own first-seen order (row by row, column by column) —
// the same in every process and at every GOMAXPROCS, and with them the hash
// keys, the shape of every overlay trie and the allocation counts the perf
// gate holds deltas to. NewForRules feeds it a relation through Add;
// certainfix.NewFromCSV a file through ReadCSV, which parses and interns
// chunks of it in parallel and merges them in file order (csv.go), so a
// master never exists as values and as ids at once.
type Builder struct {
	d      *Data
	shards int // WithShards' override; 0 derives P at Finish
	auth   bool
	// last and lastID memoize, per column, the previous row's cell: in
	// master data most cells repeat the one above them (sorted keys,
	// low-cardinality columns), and those skip the symbol table.
	last   []relation.Value
	lastID []uint32
}

// NewBuilder starts a lineage for Σ over Σ's master schema: Σ's plan — one
// index per distinct Xm list and per column of a multi-column one, and each
// rule's share of them — resolved now, its structures built by Finish.
func NewBuilder(sigma *rule.Set, opts ...BuildOption) *Builder {
	cfg, schema := resolveBuildConfig(opts), sigma.MasterSchema()
	return &Builder{
		d:      &Data{schema: schema, rows: rowVec{arity: schema.Arity()}, syms: relation.NewSymbols(), plan: newPlan(sigma)},
		shards: cfg.shards,
		auth:   cfg.auth,
		last:   make([]relation.Value, schema.Arity()),
		lastID: make([]uint32, schema.Arity()),
	}
}

// Add appends one master tuple after checking it against the schema; the
// error is a *BuildError (matching ErrMasterBuild) with the tuple's id and
// key context. Nothing of t is retained — its cells become ids and a string
// enters the symbol table as a copy — so the producer may overwrite t, and
// whatever buffer its strings alias, for the next row.
func (b *Builder) Add(t relation.Tuple) error {
	if err := validateTuple(b.d.schema, t); err != nil {
		return &BuildError{TupleID: b.d.rows.Len(), Key: tupleKeyContext(t), Err: err}
	}
	d := b.d
	first := d.rows.Len() == 0
	row := d.rows.grow()
	for c, v := range t {
		if !first && v == b.last[c] {
			row[c] = b.lastID[c]
			continue
		}
		id := d.syms.InternClone(v)
		row[c], b.last[c], b.lastID[c] = id, d.syms.Value(id), id
	}
	return nil
}

// Finish fixes the snapshot's shard count — shardsFor the rows added so far,
// unless WithShards overrode it — builds every planned structure over
// those rows and returns the snapshot, at epoch 0. The Builder must not be
// used afterwards.
func (b *Builder) Finish() *Data {
	d := b.d
	d.nshards = b.shards
	if d.nshards == 0 {
		d.nshards = shardsFor(d.rows.Len())
	}
	d.fill()
	// The error is dropped because no job returns one.
	d.supported, _ = parallel.Map(len(d.plan.rules), 0, func(r int) (int, error) {
		return d.countSupported(r), nil
	})
	if b.auth {
		d.Authenticate()
	}
	return d
}

// fill builds the d.nshards shard tables of every index of the plan from the
// id rows, which it only reads; every task writes its own index's shards —
// no locks. The indexes build side by side, each gathering its key column in
// one pass over the rows — the hash of the row's Xm ids, no symbol lookup —
// grouping it by shard and building one table per shard, its exception
// table (uniform.go), if it keeps one, following its buckets. The arrays
// that takes belong to the worker, not the index: a build allocates them
// once per CPU, whatever Σ plans.
func (d *Data) fill() {
	nindexes := len(d.plan.indexes)
	if nindexes == 0 {
		return // an empty Σ: no worker, no scratch
	}
	n, p := d.rows.Len(), d.nshards
	d.shards = make([]indexShard, nindexes*p)
	// The error is dropped because no job returns one.
	_, _ = parallel.MapWorkers(nindexes, 0, func() func(int) (struct{}, error) {
		// keys is the index's key of every tuple, in tuple order, and then the
		// sort buffer of each shard's table; gkeys and ids the same keys and
		// their tuples grouped by shard; kc counts a shard's keys.
		keys, gkeys, ids := make([]uint64, n), make([]uint64, n), make([]int, n)
		kc := newKeyCounts(n / (4 * p))
		return func(k int) (struct{}, error) {
			idx := d.indexAt(k)
			for i, row := range d.rows.All() {
				keys[i] = d.syms.HashRow(row, idx.xm)
			}
			start := groupByShard(keys, gkeys, ids, p)
			for s := range idx.shards {
				lo, hi := start[s], start[s+1]
				idx.shards[s].frozen = buildTableSorting(gkeys[lo:hi], ids[lo:hi], keys[lo:hi], kc)
				idx.rebuildExceptions(s, &d.rows)
			}
			return struct{}{}, nil
		}
	})
}

// groupByShard copies a key column (keys[i] belongs to tuple i) into gkeys
// and ids as (key, id) pairs grouped by the key's shard, shard s at
// start[s]:start[s+1]: a counting sort, stable, so a key's ids stay
// ascending.
func groupByShard(keys, gkeys []uint64, ids []int, p int) (start [MaxShards + 2]int) {
	// start[s+1] counts shard s, then is its first free position; once the
	// pairs are placed it is its end.
	for _, k := range keys {
		start[keyShard(k, p)+2]++
	}
	for s := 2; s < p+2; s++ {
		start[s] += start[s-1]
	}
	for i, k := range keys {
		at := &start[keyShard(k, p)+1]
		gkeys[*at], ids[*at] = k, i
		*at++
	}
	return start
}
