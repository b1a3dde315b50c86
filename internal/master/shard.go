package master

// This file implements the sharded layout and the parallel build pipeline.
//
// Every index is partitioned into P shards and routes by ITS OWN KEY: an
// entry lives in the shard keyShard picks from its projection hash. A key
// therefore has exactly one bucket, holding all its ids ascending, at
// every P — the "hash table that stores tm[Xm] as a key" of §5.1 — so a
// probe reads one shard and P never shows on the read path: same buckets,
// same allocations, same scan-fallback decisions, same MemStats counts. One
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
// arena save/load, MemStats and the exception rebuild.

import (
	"repro/internal/parallel"
	"repro/internal/persist"
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
// carries a 32-byte commitment, tuples gain inclusion proofs, and
// followers can compare roots instead of probe-sweeping for divergence.
// Probe paths are untouched; builds and deltas pay O(n·log n) /
// O(delta·log n) extra hashing, which is why authentication is opt-in.
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
func (idx *index) shard(h uint64) *indexShard {
	return &idx.shards[keyShard(h, len(idx.shards))]
}

// Shards returns the snapshot's shard count P (stable across ApplyDelta).
func (d *Data) Shards() int { return d.nshards }

// registerIndex finds or creates the index over xm; a created one has no
// shards until fill sizes and builds them.
func (d *Data) registerIndex(xm []int) *index {
	if idx := d.findIndex(xm); idx != nil {
		return idx
	}
	idx := &index{xm: append([]int(nil), xm...)}
	d.indexes = append(d.indexes, idx)
	return idx
}

// registerCompatPlan creates ru's compatibility plan: the one-column index
// of each column of a multi-column Xm; buildBitmaps evaluates the pattern
// bitmap.
func (d *Data) registerCompatPlan(ru *rule.Rule) *compatPlan {
	plan := &compatPlan{}
	if xm := ru.LHSMRef(); len(xm) > 1 {
		plan.posts = make([]*index, len(xm))
		for i, col := range xm {
			plan.posts[i] = d.registerIndex([]int{col})
		}
	}
	return plan
}

// Builder is the one way a snapshot's cells come to be outside ApplyDelta
// and LoadArena: rows are fed one at a time, each cell interned as it
// arrives, and Finish builds the registered structures over the id rows.
// Because the stream is serial, ids come out in the rows' own first-seen
// order (row by row, column by column) — the same in every process and at
// every GOMAXPROCS, and with them the hash keys, the shape of every overlay
// trie and the allocation counts the perf gate holds deltas to. NewForRules
// feeds it a relation, certainfix.NewFromCSV the rows of a file as they are
// parsed, so a master never exists as values and as ids at once.
type Builder struct {
	d      *Data
	sigma  *rule.Set // nil under New: no plans, no bitmaps
	shards int       // WithShards' override; 0 derives P at Finish
	auth   bool
	// slab is the unused tail of the current slab; rows are carved off its
	// front. A slab holds as many rows as came before it, within
	// [minSlabRows, maxSlabRows].
	slab []uint32
	// last and lastID memoize, per column, the previous row's cell: in
	// master data most cells repeat the one above them (sorted keys,
	// low-cardinality columns), and those skip the symbol table.
	last   []relation.Value
	lastID []uint32
}

// Slab sizes in rows: large enough that 100k rows are a few dozen
// allocations, small enough that the last slab wastes little of a master of
// any size.
const minSlabRows, maxSlabRows = 64, 4096

// NewBuilder starts a snapshot for Σ over Σ's master schema: one index per
// distinct Xm list and per column of a multi-column one, each rule's probe
// and compatibility plans — registered now, built by Finish.
func NewBuilder(sigma *rule.Set, opts ...BuildOption) *Builder {
	b := newBuilder(sigma.MasterSchema(), sigma, resolveBuildConfig(opts))
	d := b.d
	for _, ru := range sigma.Rules() {
		idx := d.registerIndex(ru.LHSMRef())
		idx.trackRHS(ru.RHSM())
		d.plans[ru] = idx
		d.compat[ru] = d.registerCompatPlan(ru)
	}
	return b
}

func newBuilder(schema *relation.Schema, sigma *rule.Set, cfg buildConfig) *Builder {
	syms := relation.NewSymbols()
	return &Builder{
		d: &Data{
			schema: schema,
			syms:   syms,
			hasher: relation.NewHasher(syms),
			plans:  map[*rule.Rule]*index{},
			compat: map[*rule.Rule]*compatPlan{},
		},
		sigma:  sigma,
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
	b.addRow(t)
	return nil
}

// addRow interns t's cells into the next row.
func (b *Builder) addRow(t relation.Tuple) {
	d := b.d
	if len(b.slab) < len(t) {
		b.slab = make([]uint32, min(max(d.rows.Len(), minSlabRows), maxSlabRows)*len(t))
	}
	row := b.slab[:len(t):len(t)]
	b.slab = b.slab[len(t):]
	first := d.rows.Len() == 0
	for c, v := range t {
		if !first && v == b.last[c] {
			row[c] = b.lastID[c]
			continue
		}
		id, ok := d.syms.ID(v)
		if !ok {
			id = d.syms.Intern(v.Clone())
		}
		row[c], b.last[c], b.lastID[c] = id, d.syms.Value(id), id
	}
	d.rows.Append(row)
}

// Finish fixes the snapshot's shard count — shardsFor the rows added so far,
// unless WithShards overrode it — builds every registered structure over
// those rows and returns the snapshot, at epoch 0. The Builder must not be
// used afterwards.
func (b *Builder) Finish() *Data {
	d := b.d
	d.nshards = b.shards
	if d.nshards == 0 {
		d.nshards = shardsFor(d.rows.Len())
	}
	d.fill()
	if b.sigma != nil {
		d.buildBitmaps(b.sigma)
	}
	if b.auth {
		d.Authenticate()
	}
	return d
}

// buildBitmaps evaluates each rule's pattern-support bitmap, the rules side
// by side. A rule whose lhs carries no pattern cell is supported by every
// tuple: its bitmap is all ones up to n, with no scan.
func (d *Data) buildBitmaps(sigma *rule.Set) {
	n, rules := d.rows.Len(), sigma.Rules()
	// The error is dropped because no job returns one.
	_, _ = parallel.Map(len(rules), 0, func(r int) (struct{}, error) {
		ru := rules[r]
		plan := d.compat[ru]
		bits := make([]uint64, (n+63)/64)
		if patternFree(ru) {
			for w := range bits {
				bits[w] = ^uint64(0)
			}
			if tail := n % 64; tail != 0 { // no bit past n: an image with one does not load
				bits[len(bits)-1] = 1<<uint(tail) - 1
			}
			plan.patBits, plan.patCount = persist.FromSlice(bits), n
			return struct{}{}, nil
		}
		for id, row := range d.rows.All() {
			if patternCompatible(ru, row, d.syms) {
				bits[id>>6] |= 1 << (uint(id) & 63)
				plan.patCount++
			}
		}
		plan.patBits = persist.FromSlice(bits)
		return struct{}{}, nil
	})
}

// fill builds every registered index's d.nshards shard tables from the id
// rows, which it only reads; every task writes its own index — no locks. The
// indexes build side by side, each gathering its key column in one pass over
// the rows — the hash of the row's Xm ids, no symbol lookup — grouping it by
// shard and building one table per shard, its exception table (uniform.go)
// following its buckets. The arrays that takes belong to the worker, not the
// index: a build allocates them once per CPU, whatever Σ registers.
func (d *Data) fill() {
	if len(d.indexes) == 0 {
		return // no worker, no scratch: New's masters
	}
	n, p := d.rows.Len(), d.nshards
	// The error is dropped because no job returns one.
	_, _ = parallel.MapWorkers(len(d.indexes), 0, func() func(int) (struct{}, error) {
		// keys is the index's key of every tuple, in tuple order, and then the
		// sort buffer of each shard's table; gkeys and ids the same keys and
		// their tuples grouped by shard.
		keys, gkeys, ids := make([]uint64, n), make([]uint64, n), make([]int, n)
		return func(k int) (struct{}, error) {
			idx := d.indexes[k]
			for i, row := range d.rows.All() {
				keys[i] = d.hasher.HashRow(row, idx.xm)
			}
			start := groupByShard(keys, gkeys, ids, p)
			idx.shards = make([]indexShard, p)
			for s := range idx.shards {
				lo, hi := start[s], start[s+1]
				idx.shards[s].frozen = buildTableSorting(gkeys[lo:hi], ids[lo:hi], keys[lo:hi])
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
