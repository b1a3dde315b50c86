// Package master holds a master relation Dm with hash indexes keyed on the
// Xm attribute lists of a rule set. The paper's complexity analysis of
// TransFix (§5.1) assumes "constant time to check whether there exists a
// master tuple that is applicable to t with an eR, by using a hash table
// that stores tm[Xm] as a key" — this package provides exactly that.
//
// Dm itself is held as rows of interned value ids, one uint32 per cell,
// every column interned (Data.rows): a probe looks its values' ids up once,
// to hash them, and verifies candidates by comparing those ids with the
// stored cells; values are materialized only for callers that show or hash a
// whole tuple (Cell, Tuple, All, Relation).
//
// The indexes are keyed on uint64 FNV-1a hashes of interned values
// (relation.Symbols / relation.Hasher); a key has ONE bucket, holding the
// ascending ids of every tuple whose Xm projection hashes to it. There is
// one index layout: every shard of every index is an
// immutable open-addressing table (table.go) — the same whether built by
// NewForRules, rewritten by compaction or mapped by LoadArena — under a
// per-snapshot overlay trie holding the deltas since (overlay.go). Per-rule
// probe plans are resolved once at NewForRules time. There are two kinds
// of probe:
//
//   - Value probes — RHSValues, RHSValuesWitness — answer "which values
//     tm[Bm] does the rule assign, and which master tuple witnesses it" in
//     O(1), not O(matches). They rest on one
//     invariant: the paper assumes Dm is consistent (§2), i.e. every rule
//     is a function on the master, so all tuples of a bucket share the Xm
//     projection and agree on the rule's Bm. Such a bucket is UNIFORM and
//     its smallest id, bucket[0], answers for all of it: one hash fold,
//     one bucket lookup, one verification of t[X] against bucket[0]. The
//     buckets that break the invariant — a 64-bit hash collision, a dirty
//     master — are listed in small exception tables (uniform.go), empty on
//     a consistent master; a listed bucket is scanned exactly.
//     MemStats.NonUniformBuckets counts them.
//   - Enumerating probes — MatchIDs, Lookup — return every matching id,
//     verifying each candidate against the stored row (hash equality
//     alone does not prove projection equality). They never consult the
//     exception tables, return the bucket itself (no copy, no allocation)
//     unless a collision has to be filtered out of it or deltas have left
//     it in several chunks, and serve the callers that need the pairs
//     themselves: Explore, ApplicablePairs, the naive oracles, and the
//     tests that hold the value probes to a scan.
//
// Condition (c) of §5.2 needs the same lookup on a PART of Xm when the lhs
// is only partly validated. It reads the same kind of index: for every
// column of a multi-column Xm NewForRules also builds the index over that
// column alone (found, not duplicated, when some rule's whole Xm is that
// column), and compat.go walks the smallest bucket of the validated columns
// under a per-rule pattern-support bitmap instead of scanning Dm.
//
// Every index is partitioned into P shards, routed by its key (shard.go). P
// follows the master's size — one shard per 32k tuples, fixed when the
// master is built and kept by its lineage — and sets the grain of
// compaction; it is invisible to probes, which read the one shard their key
// routes to. Tuple ids stay global, so probe results are byte-identical for
// every P.
//
// The paper assumes master data is static (§2). A service cannot stop the
// world to re-run NewForRules for every correction, so this package
// versions Dm: a *Data is an immutable, epoch-stamped SNAPSHOT, ApplyDelta
// derives the next one by structural sharing — tables shared; row headers,
// overlays, symbols, exception tables and pattern bitmaps edited along the
// paths and chunks the delta touches — and the Versioned handle publishes
// the current snapshot through an atomic pointer.
//
// Concurrency contract:
//
//   - A snapshot never changes once built. All lookups (MatchIDs, Lookup,
//     RHSValues, CompatibleExists, PatternSupported, ...) on a snapshot
//     are safe from any number of goroutines, concurrently with ApplyDelta
//     deriving new snapshots — readers pin a snapshot and can never
//     observe torn or partially-applied state.
//   - ApplyDelta calls on the same snapshot must be serialized by the
//     caller; Versioned.Apply does this and is the recommended mutation
//     path.
//
// Deletion uses swap-remove semantics: deleting tuple i moves the last
// tuple into slot i. This keeps incremental maintenance O(delta) instead
// of O(|Dm|) (no id renumbering cascades); the property tests pin that
// every snapshot is equivalent to NewForRules on the materialized
// relation under exactly these semantics.
package master

import (
	"fmt"
	"iter"
	"slices"

	"repro/internal/authtree"
	"repro/internal/persist"
	"repro/internal/relation"
	"repro/internal/rule"
)

// index is one hash index over an Xm position list: bucket ids keyed on
// the uint64 projection hash, partitioned by that hash into one
// copy-on-write layered map per shard (see overlay.go, shard.go). Buckets
// hold ascending tuple ids, so probe results are deterministic and a
// bucket's smallest id is bucket[0]. Beside its buckets each shard lists the
// ones that are not uniform (see uniform.go); bms are the rhs columns
// uniformity is tracked on.
type index struct {
	xm     []int
	bms    []int
	shards []indexShard
}

type indexShard struct {
	layered
	exc exceptions
}

func newIndex(xm []int, nshards int) *index {
	return &index{xm: xm, shards: make([]indexShard, nshards)}
}

// fork derives the next snapshot's view of the index: every shard layer
// forks independently, so overlay growth and compaction stay shard-local.
// Exception tables are immutable slices, shared until a delta rewrites one.
func (idx *index) fork() *index {
	ni := newIndex(idx.xm, len(idx.shards))
	ni.bms = idx.bms
	for s := range idx.shards {
		ni.shards[s] = indexShard{idx.shards[s].layered.fork(), idx.shards[s].exc}
	}
	return ni
}

// size returns the total number of ids across all shards (tests, stats).
func (idx *index) size() int {
	n := 0
	for s := range idx.shards {
		n += idx.shards[s].size()
	}
	return n
}

// Data is one immutable snapshot of the master relation plus its lookup
// indexes, stamped with the epoch it was published at (NewForRules/New
// build epoch 0; each ApplyDelta increments).
type Data struct {
	epoch   uint64
	nshards int
	schema  *relation.Schema
	// rows is Dm itself: tuple id → the tuple's cells as interned value ids,
	// one per attribute of the schema. EVERY column is interned, so a cell is
	// its id, equal cells have equal ids, and syms.Value turns one back into
	// the value (Cell, Tuple, All, Relation materialize on demand). Rows are
	// carved from slabs at build and load and allocated one by one by deltas;
	// their headers sit in a chunked copy-on-write vector, so ApplyDelta
	// shares every chunk it does not touch. A row is never written once
	// stored.
	rows   rowVec
	syms   *relation.Symbols
	hasher relation.Hasher
	// indexes is the dense registry of built indexes — one per distinct Xm
	// list of Σ and per column of a multi-column one; with a handful of them
	// a linear scan comparing position slices beats string building.
	indexes []*index
	// plans maps each rule of the Σ the data was built for to its index —
	// the per-rule probe plan, resolved once so MatchIDs is a single hash +
	// bucket walk. A rule the data was not built for is not in the map and
	// scans Dm (no production path probes with one: Σ_t[Z] is a mask over Σ,
	// never a set of refined copies).
	plans map[*rule.Rule]*index
	// compat maps each rule to its compatibility plan (see compat.go): the
	// pattern-support bitmap and the one-column indexes serving the
	// partial-lhs and pattern-support paths of §5.
	compat map[*rule.Rule]*compatPlan
	// arena pins the backing bytes of an arena-loaded snapshot (nil for
	// ones built in memory). Propagated through ApplyDelta derivations:
	// symbol strings and not-yet-compacted tables alias the bytes for the
	// snapshot chain's whole lifetime. See arena.go / arena_load.go.
	arena *arenaRef
	// auth is the snapshot's sparse-Merkle commitment over the tuple
	// multiset (nil = unauthenticated, the default). Built by WithAuth /
	// Authenticate and maintained copy-on-write by ApplyDelta; see auth.go.
	auth *authtree.Tree
}

// rowVec is the vector of id rows behind a snapshot.
type rowVec = persist.Vec[[]uint32]

// New wraps a master relation with no indexes: every probe scans. For
// callers that only read Dm's cells (the rule miner); NewForRules builds
// the indexed master.
func New(rel *relation.Relation, opts ...BuildOption) *Data {
	b := newBuilder(rel.Schema(), nil, resolveBuildConfig(opts))
	for _, t := range rel.All() {
		// A relation checks arity on the way in; New has never validated
		// cell types and its callers (the rule miner) rely on none.
		b.addRow(t)
	}
	return b.Finish()
}

// NewForRules wraps a master relation, eagerly builds one index per
// distinct Xm list in Σ and per column of a multi-column one, and
// resolves each rule's probe and compatibility plans: a Builder fed the
// relation's tuples. The indexes are partitioned into shardsFor(|Dm|)
// shards and filled in parallel on GOMAXPROCS goroutines.
// Failures — schema mismatch, a tuple violating the schema's declared
// types — are typed: errors.Is(err, ErrMasterBuild), with a *BuildError
// carrying the failing tuple's id and key context.
func NewForRules(rel *relation.Relation, sigma *rule.Set, opts ...BuildOption) (*Data, error) {
	if !sigma.MasterSchema().Equal(rel.Schema()) {
		return nil, &BuildError{TupleID: -1, Err: fmt.Errorf(
			"relation schema %s does not match Σ's master schema %s",
			rel.Schema().Name(), sigma.MasterSchema().Name())}
	}
	b := NewBuilder(sigma, opts...)
	for _, t := range rel.All() {
		if err := b.Add(t); err != nil {
			return nil, err
		}
	}
	return b.Finish(), nil
}

// MustNewForRules is NewForRules that panics on error.
func MustNewForRules(rel *relation.Relation, sigma *rule.Set, opts ...BuildOption) *Data {
	d, err := NewForRules(rel, sigma, opts...)
	if err != nil {
		panic(err)
	}
	return d
}

// Schema returns the master schema Rm.
func (d *Data) Schema() *relation.Schema { return d.schema }

// Len returns |Dm|.
func (d *Data) Len() int { return d.rows.Len() }

// Epoch returns the snapshot's version stamp: 0 for a freshly built Data,
// parent+1 for each ApplyDelta derivation.
func (d *Data) Epoch() uint64 { return d.epoch }

// Cell returns the value of master tuple i on column col. O(1), no
// allocation.
func (d *Data) Cell(i, col int) relation.Value { return d.syms.Value(d.rows.At(i)[col]) }

// Tuple materializes master tuple i: a fresh tuple, the caller's to keep
// or edit. Probes never do this — they compare ids — so it is for the
// callers that show or hash a whole tuple: witnesses, proofs, samples,
// oracles.
func (d *Data) Tuple(i int) relation.Tuple { return d.TupleInto(nil, i) }

// TupleInto is Tuple writing into buf when buf has the capacity, for loops
// that look at one tuple at a time.
func (d *Data) TupleInto(buf relation.Tuple, i int) relation.Tuple {
	row := d.rows.At(i)
	if cap(buf) < len(row) {
		buf = make(relation.Tuple, len(row))
	}
	buf = buf[:len(row)]
	for c, id := range row {
		buf[c] = d.syms.Value(id)
	}
	return buf
}

// All iterates the master tuples in id order, materializing each into ONE
// tuple it overwrites for the next: Clone what outlives the iteration.
func (d *Data) All() iter.Seq2[int, relation.Tuple] {
	return func(yield func(int, relation.Tuple) bool) {
		var buf relation.Tuple
		for i := range d.rows.Len() {
			buf = d.TupleInto(buf, i)
			if !yield(i, buf) {
				return
			}
		}
	}
}

// Relation materializes the whole master as a relation of its own:
// O(|Dm|·arity) values in two allocations, built per call and not retained.
// For tools and tests that want Dm as a relation (CSV export, generators,
// rebuild oracles); nothing on a request or boot path calls it.
func (d *Data) Relation() *relation.Relation {
	n, arity := d.Len(), d.schema.Arity()
	backing := make([]relation.Value, n*arity)
	tuples := make([]relation.Tuple, n)
	for i := range tuples {
		tuples[i] = d.TupleInto(backing[i*arity:i*arity:(i+1)*arity], i)
	}
	rel, err := relation.FromTuples(d.schema, tuples)
	if err != nil {
		panic(err) // unreachable: every row has the schema's arity
	}
	return rel
}

// Hasher returns the shared projection hasher (read-only after indexing).
func (d *Data) Hasher() relation.Hasher { return d.hasher }

// findIndex locates a registered index by position list; nil when absent.
// Allocation-free.
func (d *Data) findIndex(xm []int) *index {
	for _, idx := range d.indexes {
		if eqPos(idx.xm, xm) {
			return idx
		}
	}
	return nil
}

func eqPos(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// probeIDs is the buffer a probe looks its values' ids up into: on the
// stack for every lhs a rule set plausibly has.
type probeIDs [8]uint32

// take returns room for n ids.
func (b *probeIDs) take(n int) []uint32 {
	if n > len(b) {
		return make([]uint32, n)
	}
	return b[:n]
}

// matches reports whether stored tuple id carries ids on the positions xm —
// the t[X] = tm[Xm] test, on the ids the hash step looked up: equal values
// have equal ids.
func (d *Data) matches(id int, xm []int, ids []uint32) bool {
	return rowMatches(d.rows.At(id), xm, ids)
}

func rowMatches(row []uint32, xm []int, ids []uint32) bool {
	for i, p := range xm {
		if row[p] != ids[i] {
			return false
		}
	}
	return true
}

// verified is the enumerate-all step shared by MatchIDs and Lookup: check
// every candidate of the key's bucket exactly once (hash equality alone does
// not prove projection equality). A bucket of one chunk — every bucket of a
// frozen table — comes back itself, ascending and uncopied, unless a
// collision has to be filtered out of it (the cold path: a fresh slice). A
// bucket deltas have left in several chunks is flattened into a fresh slice:
// that is the price of the enumerate-all probe of Explore and the naive
// oracles on an edited long bucket, not of a fix — its value probes read the
// smallest id and never enumerate.
func (d *Data) verified(bucket *idList, xm []int, ids []uint32) []int {
	flat := bucket.flat()
	for i, id := range flat {
		if !d.matches(id, xm, ids) {
			out := append([]int(nil), flat[:i]...)
			for _, id := range flat[i+1:] {
				if d.matches(id, xm, ids) {
					out = append(out, id)
				}
			}
			return out
		}
	}
	return flat
}

// scan is the unindexed fallback: the ids of all tuples carrying ids on xm.
func (d *Data) scan(xm []int, ids []uint32) []int {
	var out []int
	for i, row := range d.rows.All() {
		if rowMatches(row, xm, ids) {
			out = append(out, i)
		}
	}
	return out
}

// Lookup returns the ids of master tuples tm with tm[xm] equal to the
// projection values[i] (aligned with xm). It uses a prebuilt index when
// available and falls back to a scan otherwise.
func (d *Data) Lookup(xm []int, values []relation.Value) []int {
	if len(values) != len(xm) {
		return nil // arity mismatch can never match (and must not panic)
	}
	var buf probeIDs
	ids := buf.take(len(xm))
	h, ok := d.hasher.ProbeValues(values, ids)
	if !ok {
		return nil // some value occurs nowhere in the master
	}
	if idx := d.findIndex(xm); idx != nil {
		bucket := idx.shard(h).list(h)
		return d.verified(&bucket, idx.xm, ids)
	}
	return d.scan(xm, ids)
}

// indexFor resolves ru's probe plan; nil — scan — for a rule outside the Σ
// the data was built for.
func (d *Data) indexFor(ru *rule.Rule) *index { return d.plans[ru] }

// MatchIDs returns the ids of ALL master tuples tm with t[X] = tm[Xm] for
// the rule's (X, Xm) correspondence, ascending — the enumerate-all probe,
// O(matches). It does not test the rule's pattern (patterns constrain t,
// not tm). Indexed probes are allocation-free at every shard count; the
// returned slice may alias internal index state — treat it as read-only.
// Callers that need only the rhs values or one witness use RHSValues /
// RHSValuesWitness, which do not enumerate.
func (d *Data) MatchIDs(ru *rule.Rule, t relation.Tuple) []int {
	x := ru.LHSRef()
	var buf probeIDs
	ids := buf.take(len(x))
	h, ok := d.hasher.ProbeTuple(t, x, ids)
	if !ok {
		return nil // some probe value occurs nowhere in the master
	}
	if idx := d.indexFor(ru); idx != nil {
		bucket := idx.shard(h).list(h)
		return d.verified(&bucket, idx.xm, ids)
	}
	return d.scan(ru.LHSMRef(), ids)
}

// RHSValues returns the distinct values tm[Bm] over all master tuples
// applicable with ru to t, ordered by the smallest id carrying each.
// Multiple distinct values indicate a same-rule conflict (two master
// tuples disagree on the fix).
func (d *Data) RHSValues(ru *rule.Rule, t relation.Tuple) []relation.Value {
	values, _ := d.RHSValuesWitness(ru, t)
	return values
}

// RHSValuesWitness is RHSValues plus the smallest applicable master id
// (-1 when none) from the same probe — the provenance witness of a fix.
// On an index the probe is O(1), not O(matches): a uniform bucket is
// verified against, and read from, its smallest id alone; only a bucket
// the exception table lists for Bm (or as collided) is scanned.
func (d *Data) RHSValuesWitness(ru *rule.Rule, t relation.Tuple) ([]relation.Value, int) {
	if !ru.MatchesPattern(t) {
		return nil, -1
	}
	x, xm, bm := ru.LHSRef(), ru.LHSMRef(), ru.RHSM()
	var buf probeIDs
	ids := buf.take(len(x))
	h, ok := d.hasher.ProbeTuple(t, x, ids)
	if !ok {
		return nil, -1
	}
	var bucket idList
	if idx := d.indexFor(ru); idx == nil {
		bucket.span[0] = d.scan(xm, ids)
	} else {
		sh := idx.shard(h)
		bucket = sh.list(h)
		if bit := idx.rhsBit(bm); bit != 0 && sh.exc.mask(h)&bit == 0 {
			bucket = bucket.head() // uniform on Xm and Bm: the smallest id speaks for all
		}
	}
	// Ids ascend, so the first match is the witness and a value's first
	// appearance is at the smallest id carrying it. Distinct values are 1 on
	// a consistent master and a handful otherwise: dedup is a linear scan.
	var values []relation.Value
	first := -1
	for _, chunk := range bucket.chunks() {
		for _, id := range chunk {
			row := d.rows.At(id)
			if !rowMatches(row, xm, ids) {
				continue
			}
			if first < 0 {
				first = id
			}
			if v := d.syms.Value(row[bm]); !slices.Contains(values, v) {
				values = append(values, v)
			}
		}
	}
	return values, first
}
