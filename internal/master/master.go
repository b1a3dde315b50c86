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
// (relation.Symbols); a key has ONE bucket, holding the
// ascending ids of every tuple whose Xm projection hashes to it. There is
// one index layout: every shard of every index is an
// immutable open-addressing table (table.go) — the same whether built by
// NewForRules, rewritten by compaction or mapped by LoadArena — under a
// per-snapshot overlay trie holding the deltas since (overlay.go). What Σ
// decides — which indexes exist, which rhs columns each tracks, which index
// each rule's probes read — is one plan, resolved once per lineage (by
// NewBuilder, or by LoadArena for the image it checks) and shared by every
// snapshot derived from it. The master answers only for that Σ: every probe
// resolves its rule through the plan, and a rule outside it panics (ruleAt).
// There are two kinds of probe:
//
//   - The value probe — AppendRHSValues — answers "which values tm[Bm]
//     does the rule assign, and which master tuple witnesses it" in O(1),
//     not O(matches), appending to the caller's list only the values it
//     does not hold yet. It rests on one invariant: the paper assumes Dm
//     is consistent (§2), i.e. every rule is a function on the master, so
//     all tuples of a bucket share the Xm projection and agree on the
//     rule's Bm. Such a bucket is UNIFORM and its smallest id, bucket[0],
//     answers for all of it: one hash fold, one bucket lookup, one
//     verification of t[X] against bucket[0]. The buckets that break the
//     invariant — a 64-bit hash collision, a dirty master — are listed in
//     small exception tables (uniform.go), empty on a consistent master; a
//     listed bucket is scanned exactly. MemStats.NonUniformBuckets counts
//     them.
//   - The enumerating probe — MatchIDs — returns every matching id,
//     verifying each candidate against the stored row (hash equality
//     alone does not prove projection equality). It never consults the
//     exception tables, returns the bucket itself (no copy, no allocation)
//     unless a collision has to be filtered out of it or deltas have left
//     it in several chunks, and serves the callers that need the ids
//     themselves: the direct-fix coverage test of internal/analysis.
//
// Condition (c) of §5.2 needs the same lookup on a PART of Xm when the lhs
// is only partly validated. It reads the same kind of index: for every
// column of a multi-column Xm NewForRules also builds the index over that
// column alone (found, not duplicated, when some rule's whole Xm is that
// column), and compat.go walks the smallest bucket of the validated columns,
// testing each candidate's row, instead of scanning Dm.
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
// derives the next one by structural sharing — plan and tables shared; row
// headers, overlays, symbols and exception tables edited along the paths
// and chunks the delta touches; the pattern-support counts copied and
// adjusted — and the Versioned handle publishes the current snapshot
// through an atomic pointer.
//
// Concurrency contract:
//
//   - A snapshot never changes once built. All lookups (MatchIDs,
//     AppendRHSValues, CompatibleExists, PatternSupported, ...) on a snapshot
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

// plan is everything Σ decides about a lineage's lookup structures, built
// once by newPlan when the lineage starts (NewBuilder, LoadArena) and held by
// pointer by every snapshot derived from it: Σ never changes within a
// lineage, so a delta copies none of it. What deltas write a snapshot keeps
// itself, in slices by plan position (Data.shards, Data.supported).
type plan struct {
	// indexes lists one index per distinct Xm list of Σ and per column of a
	// multi-column one, in registration order — rule by rule, its Xm, then
	// its columns — which is the order of an image's index section.
	indexes []indexPlan
	// rules[r] is the plan of Σ's r-th rule, and pos maps each rule to r
	// (see Data.ruleAt).
	rules []rulePlan
	pos   map[*rule.Rule]int
}

// indexPlan is what Σ decides about one index: the Xm list it is keyed on,
// and bms, the rhs columns its exception tables track (uniform.go) — the Bm
// of every rule whose whole Xm it is. An index without bms, a column no
// rule probes by value, keeps no exception table.
type indexPlan struct {
	xm, bms []int
}

// rulePlan is what Σ decides about one rule: the position of the index over
// its Xm, which its probes read, its Bm's bit in that index's exception
// masks, and posts[i], the position of the index over Xm[i] alone — nil
// when Xm is one column (see compat.go).
type rulePlan struct {
	ru    *rule.Rule
	index int
	bit   uint64
	posts []int
}

// newPlan resolves Σ's plan: for each rule in Σ order, the index over its
// Xm (found or registered) tracking its Bm, then the one-column index of
// each column of a multi-column Xm.
func newPlan(sigma *rule.Set) *plan {
	p := &plan{pos: make(map[*rule.Rule]int, sigma.Len())}
	for r, ru := range sigma.Rules() {
		rp := rulePlan{ru: ru, index: p.register(ru.LHSM())}
		ip := &p.indexes[rp.index]
		i := slices.Index(ip.bms, ru.RHSM())
		if i < 0 {
			i = len(ip.bms)
			ip.bms = append(ip.bms, ru.RHSM())
		}
		rp.bit = 1 << min(i, 63)
		if xm := ru.LHSM(); len(xm) > 1 {
			rp.posts = make([]int, len(xm))
			for i, col := range xm {
				rp.posts[i] = p.register([]int{col})
			}
		}
		p.rules = append(p.rules, rp)
		p.pos[ru] = r
	}
	return p
}

// register returns the position of the index over xm, registering it when
// absent.
func (p *plan) register(xm []int) int {
	if i := p.find(xm); i >= 0 {
		return i
	}
	p.indexes = append(p.indexes, indexPlan{xm: slices.Clone(xm)})
	return len(p.indexes) - 1
}

// find returns the position of the index over xm, -1 when there is none: a
// linear scan, allocation-free, over a handful of indexes.
func (p *plan) find(xm []int) int {
	for i := range p.indexes {
		if slices.Equal(p.indexes[i].xm, xm) {
			return i
		}
	}
	return -1
}

// index is one hash index of a snapshot: its plan, and the snapshot's
// shards of it — bucket ids keyed on the uint64 projection hash, partitioned
// by that hash into one copy-on-write layered map per shard (see overlay.go,
// shard.go). Buckets hold ascending tuple ids, so probe results are
// deterministic and a bucket's smallest id is bucket[0]. Beside its buckets
// each shard lists the ones that are not uniform (see uniform.go).
type index struct {
	*indexPlan
	shards []indexShard
}

type indexShard struct {
	layered
	exc exceptions
}

// indexAt returns the snapshot's view of the plan's i-th index.
func (d *Data) indexAt(i int) index {
	return index{&d.plan.indexes[i], d.shards[i*d.nshards : (i+1)*d.nshards]}
}

// ruleAt is the one plan lookup every probe makes: the position in the plan
// of the rule ru, which must be a rule of the Σ the lineage was built for.
// The master answers only for its own Σ — Σ_t[Z] is a mask over Σ, never a
// set of refined copies — so any other rule is a caller's bug: it panics,
// naming the rule.
func (d *Data) ruleAt(ru *rule.Rule) int {
	r, ok := d.plan.pos[ru]
	if !ok {
		panic(fmt.Sprintf("master: rule %s is not in the Σ this master was built for", ru.Name()))
	}
	return r
}

// Data is one immutable snapshot of the master relation plus its lookup
// indexes, stamped with the epoch it was published at (NewForRules/Builder
// build epoch 0; each ApplyDelta increments).
type Data struct {
	epoch   uint64
	nshards int
	schema  *relation.Schema
	// rows is Dm itself: tuple id → the tuple's cells as interned value ids,
	// one per attribute of the schema. EVERY column is interned, so a cell is
	// its id, equal cells have equal ids, and syms.Value turns one back into
	// the value (Cell, Tuple, All, Relation materialize on demand). Rows are
	// carved from slabs at build, viewed in the image at load, and allocated
	// one by one by deltas;
	// their headers sit in a chunked copy-on-write vector, so ApplyDelta
	// shares every chunk it does not touch. A row is never written once
	// stored.
	rows rowVec
	syms *relation.Symbols
	// plan is Σ's plan, shared by every snapshot of the lineage: the
	// indexes, and per rule the index its probes read.
	plan *plan
	// shards is every index's shards, index i's at [i·nshards,
	// (i+1)·nshards) (indexAt): the tables, overlays and exception tables
	// deltas write.
	shards []indexShard
	// supported[r] counts the tuples satisfying the pattern of the plan's
	// r-th rule (see compat.go).
	supported []int
	// arena pins the backing bytes of an arena-loaded snapshot (nil for
	// ones built in memory). Propagated through ApplyDelta derivations:
	// rows, symbol strings and not-yet-compacted tables alias the bytes for the
	// snapshot chain's whole lifetime. See arena.go / arena_load.go.
	arena *arenaRef
	// auth is the snapshot's sparse-Merkle commitment over the tuple
	// multiset (nil = unauthenticated, the default). Built by WithAuth /
	// Authenticate and maintained copy-on-write by ApplyDelta; see auth.go.
	auth *authtree.Tree
}

// rowVec is the vector of id rows behind a snapshot.
type rowVec = persist.Vec[[]uint32]

// NewForRules wraps a master relation and eagerly builds the indexes of Σ's
// plan — one per distinct Xm list in Σ and per column of a multi-column one
// — and each rule's pattern-support count: a Builder fed the relation's
// tuples. The indexes are partitioned into shardsFor(|Dm|) shards and filled
// in parallel on GOMAXPROCS goroutines.
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

// Symbols returns the snapshot's symbol table, the ids its rows hold
// (read-only: the lineage's next snapshot interns into a fork of it).
func (d *Data) Symbols() *relation.Symbols { return d.syms }

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

// verified is the enumerate-all step of MatchIDs: check every candidate of
// the key's bucket exactly once (hash equality alone does not prove
// projection equality). A bucket of one chunk — every bucket of a frozen
// table — comes back itself, ascending and uncopied, unless a collision has
// to be filtered out of it (the cold path: a fresh slice). A bucket deltas
// have left in several chunks is flattened into a fresh slice: that is the
// price of the enumerate-all probe on an edited long bucket, not of a fix —
// its value probes read the smallest id and never enumerate.
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

// MatchIDs returns the ids of ALL master tuples tm with t[X] = tm[Xm] for
// the rule's (X, Xm) correspondence, ascending — the one enumerating
// probe, O(matches). It does not test the rule's pattern (patterns
// constrain t, not tm); only t's cells at X are read. Indexed probes are
// allocation-free at every shard count; the returned slice may alias
// internal index state — treat it as read-only. Callers that need only the
// rhs values or one witness use AppendRHSValues, which does not enumerate.
func (d *Data) MatchIDs(ru *rule.Rule, t relation.Tuple) []int {
	idx := d.indexAt(d.plan.rules[d.ruleAt(ru)].index)
	x := ru.LHS()
	var buf probeIDs
	ids := buf.take(len(x))
	h, ok := d.syms.ProbeTuple(t, x, ids)
	if !ok {
		return nil // some probe value occurs nowhere in the master
	}
	bucket := idx.shard(h).list(h)
	return d.verified(&bucket, idx.xm, ids)
}

// AppendRHSValues is the one value probe: it appends to dst the values
// tm[Bm] of the master tuples applicable with ru to t that dst does not
// already hold, ordered by the smallest id carrying each, and returns the
// extended slice with the smallest applicable master id (-1 when none) —
// the provenance witness of a fix. Two distinct values from one rule are a
// same-rule conflict (two master tuples disagree on the fix); a caller
// that appends several rules' values into one list gets their distinct
// union, in rule order. A caller that probes in a loop passes its own
// buffer and allocates nothing. On an index the probe is O(1), not
// O(matches): a uniform bucket is verified against, and read from, its
// smallest id alone; only a bucket the exception table lists for Bm (or as
// collided) is scanned.
func (d *Data) AppendRHSValues(dst []relation.Value, ru *rule.Rule, t relation.Tuple) ([]relation.Value, int) {
	rp := &d.plan.rules[d.ruleAt(ru)]
	if !ru.MatchesPattern(t) {
		return dst, -1
	}
	x, xm, bm := ru.LHS(), ru.LHSM(), ru.RHSM()
	var buf probeIDs
	ids := buf.take(len(x))
	h, ok := d.syms.ProbeTuple(t, x, ids)
	if !ok {
		return dst, -1
	}
	sh := d.indexAt(rp.index).shard(h)
	bucket := sh.list(h)
	if sh.exc.mask(h)&rp.bit == 0 {
		bucket = bucket.head() // uniform on Xm and Bm: the smallest id speaks for all
	}
	// Ids ascend, so the first match is the witness and a value's first
	// appearance is at the smallest id carrying it. Distinct values are 1 on
	// a consistent master and a handful otherwise: dedup is a linear scan
	// of dst.
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
			if v := d.syms.Value(row[bm]); !slices.Contains(dst, v) {
				dst = append(dst, v)
			}
		}
	}
	return dst, first
}
