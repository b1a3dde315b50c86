package master

// This file implements the sharded layout and the parallel build pipeline.
//
// A snapshot's index buckets, posting lists — every per-tuple map entry —
// are partitioned into P hash shards. Routing is by TUPLE-KEY hash: the
// full tuple content is folded with the interning-free relation.HashValue
// chain and reduced modulo P, so a tuple's shard is a pure function of its
// cells — identical across snapshots, across a delta chain and its
// rebuild oracle, and across processes (no dependence on interning order
// or map iteration). Tuple ids are NOT sharded: they remain global
// positions in the relation, so probe results are byte-identical for
// every P (the shard property tests pin this against the P=1 oracle).
//
// Sharding buys three things:
//
//  1. Parallel builds. NewForRules fills the P shards concurrently on
//     internal/parallel — the per-shard tables are disjoint, so no locks.
//     Value interning, the one inherently shared step, runs as a
//     parallel distinct-value collection followed by a serial merge over
//     the (much smaller) distinct set.
//  2. Shard-local copy-on-write. ApplyDelta routes each add/delete to its
//     tuple's shard, so delta overlays and flatten-at-1/4 compaction
//     touch 1/P of the structure; large deltas apply shard-parallel.
//  3. Headroom for multi-million-tuple masters: no single monolithic table
//     grows to |Dm| entries, and rebuild cost drops with core count.
//
// Probes fan out: the probe key can match tuples in any shard (routing is
// by full tuple, probing by projection), so every probe visits the P
// buckets for the key's hash. A value probe (RHSValues, FirstMatchID)
// reads one tuple per shard — the bucket's smallest id — and is O(P)
// whatever the key matches (see uniform.go). An enumerating probe
// (MatchIDs, Lookup) returns a single shard's bucket without copying —
// every single-match probe — and pays one exactly-sized k-way merge only
// when matches straddle shards (duplicate projections in Dm). Existence
// probes (HasMatch, CompatibleExists) early-exit on the first matching
// shard.

import (
	"runtime"
	"sort"

	"repro/internal/parallel"
	"repro/internal/relation"
	"repro/internal/rule"
)

// MaxShards bounds the shard count; shard indexes must fit the uint8
// routing table the build pipeline uses.
const MaxShards = 256

// BuildOption configures snapshot construction (New / NewForRules).
type BuildOption func(*buildConfig)

type buildConfig struct {
	shards  int
	workers int
	auth    bool
}

// WithShards selects the number of hash shards the snapshot's indexes,
// posting lists and overlays are partitioned into. p <= 0 selects
// DefaultShards (one per CPU); p is clamped to [1, MaxShards]. Every
// shard count produces byte-identical probe results — P=1 degrades to
// the unsharded layout.
func WithShards(p int) BuildOption {
	return func(c *buildConfig) { c.shards = p }
}

// WithBuildWorkers bounds the goroutines NewForRules uses to fill the
// shards; w <= 0 selects GOMAXPROCS. Probe behavior is unaffected.
func WithBuildWorkers(w int) BuildOption {
	return func(c *buildConfig) { c.workers = w }
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

// DefaultShards is the shard count used when WithShards is not given:
// runtime.GOMAXPROCS(0), clamped to MaxShards.
func DefaultShards() int {
	return clampShards(runtime.GOMAXPROCS(0))
}

func clampShards(p int) int {
	if p < 1 {
		p = 1
	}
	if p > MaxShards {
		p = MaxShards
	}
	return p
}

func resolveBuildConfig(opts []BuildOption) buildConfig {
	cfg := buildConfig{}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.shards <= 0 {
		cfg.shards = DefaultShards()
	}
	cfg.shards = clampShards(cfg.shards)
	if cfg.workers <= 0 {
		cfg.workers = runtime.GOMAXPROCS(0)
	}
	return cfg
}

// routeHash folds the full tuple into the interning-free uint64 used for
// shard routing.
func routeHash(t relation.Tuple) uint64 {
	acc := relation.HashSeed()
	for _, v := range t {
		acc = relation.HashValue(acc, v)
	}
	return acc
}

// shardOf routes a tuple to its shard. The single-shard layout skips the
// hash entirely (the hot path for default builds on small machines).
func (d *Data) shardOf(t relation.Tuple) int {
	if d.nshards == 1 {
		return 0
	}
	return int(routeHash(t) % uint64(d.nshards))
}

// Shards returns the snapshot's shard count P (stable across ApplyDelta).
func (d *Data) Shards() int { return d.nshards }

// addNeedCol records an Rm position whose values must be interned for the
// registered structures to probe; kept sorted and deduplicated. The slice
// is rebuilt copy-on-write — never mutated in place — because ApplyDelta
// aliases it into derived snapshots: a later Index() on one snapshot must
// not rewrite its siblings' view.
func (d *Data) addNeedCol(col int) {
	i := sort.SearchInts(d.needCols, col)
	if i < len(d.needCols) && d.needCols[i] == col {
		return
	}
	nc := make([]int, len(d.needCols)+1)
	copy(nc, d.needCols[:i])
	nc[i] = col
	copy(nc[i+1:], d.needCols[i:])
	d.needCols = nc
}

// registerIndex finds or creates the index over xm; a created one has no
// tables until fillShards builds them.
func (d *Data) registerIndex(xm []int) (idx *index, created bool) {
	if idx := d.findIndex(xm); idx != nil {
		return idx, false
	}
	idx = newIndex(append([]int(nil), xm...), d.nshards)
	d.indexes = append(d.indexes, idx)
	for _, p := range xm {
		d.addNeedCol(p)
	}
	return idx, true
}

// registerPostings is registerIndex for the posting lists over col.
func (d *Data) registerPostings(col int) (ps *postings, created bool) {
	if ps := d.findPostings(col); ps != nil {
		return ps, false
	}
	ps = &postings{col: col, shards: make([]layered[uint32, int32], d.nshards)}
	d.postings = append(d.postings, ps)
	d.addNeedCol(col)
	return ps, true
}

// registerCompatPlan creates ru's (empty) compatibility plan: posting
// registrations for each Xm column plus a zeroed pattern bitmap.
func (d *Data) registerCompatPlan(ru *rule.Rule) *compatPlan {
	x, xm := ru.LHSRef(), ru.LHSMRef()
	plan := &compatPlan{
		patBits: make([]uint64, (d.rel.Len()+63)/64),
		posts:   make([]*postings, len(x)),
	}
	for i := range x {
		plan.posts[i], _ = d.registerPostings(xm[i])
	}
	return plan
}

// buildParallel fills every registered structure from the relation:
//
//	phase A (range-parallel): validate tuples against the schema, compute
//	  the shard routing table, and collect the distinct values of the
//	  indexed columns per worker;
//	phase A' (serial): intern the merged distinct sets — serial work is
//	  O(distinct values), not O(|Dm| × columns);
//	phase B (shard-parallel): fillShards;
//	phase C (rule-parallel): evaluate the pattern-support bitmaps.
func (d *Data) buildParallel(sigma *rule.Set, workers int) error {
	n := d.rel.Len()
	route := make([]uint8, n)
	chunks := max(1, min(workers*4, n))
	chunkLen := (n + chunks - 1) / chunks
	distinct, err := parallel.Map(chunks, workers, func(c int) (map[relation.Value]struct{}, error) {
		seen := make(map[relation.Value]struct{})
		for i := c * chunkLen; i < min((c+1)*chunkLen, n); i++ {
			tm := d.rel.Tuple(i)
			if err := validateTuple(d.rel.Schema(), tm); err != nil {
				return nil, &BuildError{Shard: d.shardOf(tm), TupleID: i, Key: tupleKeyContext(tm), Err: err}
			}
			route[i] = uint8(d.shardOf(tm))
			for _, p := range d.needCols {
				seen[tm[p]] = struct{}{}
			}
		}
		return seen, nil
	})
	if err != nil {
		return err
	}
	for _, seen := range distinct {
		for v := range seen {
			d.syms.Intern(v)
		}
	}
	// Freeze the symbols into the flat layout a loaded arena has (same ids):
	// the fill and every later probe resolve values without a Go map.
	syms, err := relation.SymbolsFromValues(d.syms.Export())
	if err != nil {
		return err // unreachable: exported values are distinct
	}
	d.syms, d.hasher = syms, relation.NewHasher(syms)
	d.fillShards(d.indexes, d.postings, route, workers)

	rules := sigma.Rules()
	_, err = parallel.Map(len(rules), workers, func(r int) (struct{}, error) {
		ru := rules[r]
		plan := d.compat[ru]
		if plan == nil {
			return struct{}{}, nil
		}
		for id := 0; id < n; id++ {
			if patternCompatible(ru, d.rel.Tuple(id)) {
				plan.patBits[id>>6] |= 1 << (uint(id) & 63)
				plan.patCount++
			}
		}
		return struct{}{}, nil
	})
	return err
}

// fillAdded builds structures registered after construction (Index,
// IndexPostings): one serial pass routes the tuples and interns the given
// columns, then fillShards.
func (d *Data) fillAdded(indexes []*index, posts []*postings, cols []int) {
	route := make([]uint8, d.rel.Len())
	for i, tm := range d.rel.Tuples() {
		route[i] = uint8(d.shardOf(tm))
		for _, c := range cols {
			d.syms.Intern(tm[c])
		}
	}
	d.fillShards(indexes, posts, route, 0)
}

// fillShards builds the given structures' shard tables from the relation,
// shard-parallel: the tables are disjoint and the symbol table, which must
// already hold every indexed value, is only read — no locks. A shard gathers
// its keys in one pass over its tuples, whatever the number of structures;
// its exception tables (uniform.go) follow its buckets.
func (d *Data) fillShards(indexes []*index, posts []*postings, route []uint8, workers int) {
	// Group tuple ids by shard (a counting sort: O(n) serial, and the
	// stable fill keeps ids ascending within each shard's slice), so each
	// shard walks only its own ids instead of the full routing table.
	counts := make([]int, d.nshards+1)
	for _, s := range route {
		counts[int(s)+1]++ // int first: s+1 would wrap at shard 255
	}
	for s := 0; s < d.nshards; s++ {
		counts[s+1] += counts[s]
	}
	order := make([]int32, len(route))
	pos := append([]int(nil), counts[:d.nshards]...)
	for i, s := range route {
		order[pos[s]] = int32(i)
		pos[s]++
	}

	// The error is dropped because the shard fill returns none.
	_, _ = parallel.Map(d.nshards, workers, func(s int) (struct{}, error) {
		mine := order[counts[s]:counts[s+1]]
		wide := make([]int, len(mine))
		keys := make([][]uint64, len(indexes)+len(posts))
		for k := range keys {
			keys[k] = make([]uint64, len(mine))
		}
		for j, i := range mine {
			wide[j] = int(i)
			tm := d.rel.Tuple(int(i))
			for k, idx := range indexes {
				h, ok := d.hasher.HashTuple(tm, idx.xm)
				if !ok {
					panic("master: build invariant: indexed value not interned")
				}
				keys[k][j] = h
			}
			for k, ps := range posts {
				vid, ok := d.syms.ID(tm[ps.col])
				if !ok {
					panic("master: build invariant: posting value not interned")
				}
				keys[len(indexes)+k][j] = uint64(vid)
			}
		}
		for k, idx := range indexes {
			idx.shards[s].frozen = buildTable(keys[k], wide)
			idx.rebuildExceptions(s, d.rel)
		}
		for k, ps := range posts {
			ps.shards[s].frozen = buildTable(keys[len(indexes)+k], mine)
		}
		return struct{}{}, nil
	})
}
