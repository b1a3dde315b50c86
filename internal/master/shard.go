package master

// This file implements the sharded layout and the parallel build pipeline.
//
// Every index and posting list is partitioned into P shards, and each routes
// by ITS OWN KEY: an index entry lives in the shard keyShard picks from its
// projection hash, a posting entry in the shard it picks from its value id.
// A key therefore has exactly one bucket, holding all its ids ascending, at
// every P — the "hash table that stores tm[Xm] as a key" of §5.1 — so a
// probe reads one shard and P never shows on the read path: same buckets,
// same allocations, same scan-fallback decisions, same MemStats counts. One
// tuple lives in a different shard per structure; tuple ids stay global
// positions in the relation.
//
// What P still buys is on the write side: compaction rewrites 1/P of a
// structure (fork flattens the shard whose overlay outgrew its table, not
// the whole index), and no single table grows to |Dm| keys. Builds are
// parallel at every P: a range-parallel pass gathers every structure's key
// column, then the structures build their P tables side by side.
//
// Shards are iterated only by whole-structure walks: build, fork/compaction,
// arena save/load, MemStats, ColumnIDs and the exception rebuild.

import (
	"runtime"
	"sort"

	"repro/internal/parallel"
	"repro/internal/persist"
	"repro/internal/relation"
	"repro/internal/rule"
)

// MaxShards bounds the shard count a build may ask for and an arena header
// may claim.
const MaxShards = 256

// BuildOption configures snapshot construction (New / NewForRules).
type BuildOption func(*buildConfig)

type buildConfig struct {
	shards int
	auth   bool
}

// WithShards selects the number of shards each index and posting list is
// partitioned into; a shard is one table and one unit of compaction. p <= 0
// selects DefaultShards (one per CPU); p is clamped to [1, MaxShards]. Probes
// read one shard whatever p is, and every p produces byte-identical results.
func WithShards(p int) BuildOption {
	return func(c *buildConfig) { c.shards = p }
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
	return cfg
}

// keyShard is the routing policy, all of it: the shard of p that holds key
// k — an index's projection hash or a posting list's value id. The top bits
// of a Fibonacci multiply depend on every bit of k, so they are independent
// of the k&mask slot bits a shard's table (table.go) uses, and dense value
// ids spread evenly: per-shard probe lengths are those of an unsharded table.
// It is a pure function of the key, so a key's shard is the same in every
// snapshot of a lineage and in every image of it; p = 1 yields 0.
func keyShard(k uint64, p int) int {
	return int((k * 0x9E3779B97F4A7C15 >> 32) * uint64(p) >> 32)
}

// shard returns the one shard holding h's bucket.
func (idx *index) shard(h uint64) *indexShard {
	return &idx.shards[keyShard(h, len(idx.shards))]
}

// shard returns the one shard holding vid's posting list.
func (ps *postings) shard(vid uint32) *layered[uint32, int32] {
	return &ps.shards[keyShard(uint64(vid), len(ps.shards))]
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
// tables until fill builds them.
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

// registerCompatPlan creates ru's compatibility plan: posting registrations
// for each Xm column; buildParallel evaluates the pattern bitmap.
func (d *Data) registerCompatPlan(ru *rule.Rule) *compatPlan {
	x, xm := ru.LHSRef(), ru.LHSMRef()
	plan := &compatPlan{posts: make([]*postings, len(x))}
	for i := range x {
		plan.posts[i], _ = d.registerPostings(xm[i])
	}
	return plan
}

// tupleChunks splits [0, n) into ranges for a range-parallel pass, a few per
// CPU so uneven ranges still balance.
func tupleChunks(n int) (chunks, chunkLen int) {
	chunks = max(1, min(runtime.GOMAXPROCS(0)*4, n))
	return chunks, (n + chunks - 1) / chunks
}

// buildParallel fills every registered structure from the relation:
//
//	phase A (range-parallel): validate tuples against the schema and
//	  collect the distinct values of the indexed columns per range;
//	phase A' (serial): intern them in first-seen order — serial work is
//	  O(distinct values), not O(|Dm| × columns);
//	phase B: fill;
//	phase C (rule-parallel): evaluate the pattern-support bitmaps.
func (d *Data) buildParallel(sigma *rule.Set) error {
	n := d.rel.Len()
	chunks, chunkLen := tupleChunks(n)
	distinct, err := parallel.Map(chunks, 0, func(c int) ([]relation.Value, error) {
		seen := make(map[relation.Value]struct{})
		var order []relation.Value // seen's keys, first occurrence first
		for i := c * chunkLen; i < min((c+1)*chunkLen, n); i++ {
			tm := d.rel.Tuple(i)
			if err := validateTuple(d.rel.Schema(), tm); err != nil {
				return nil, &BuildError{TupleID: i, Key: tupleKeyContext(tm), Err: err}
			}
			for _, p := range d.needCols {
				if _, dup := seen[tm[p]]; !dup {
					seen[tm[p]] = struct{}{}
					order = append(order, tm[p])
				}
			}
		}
		return order, nil
	})
	if err != nil {
		return err
	}
	// Range by range, first occurrence first: ids come out in the relation's
	// own first-seen order, the same in every process and at every
	// GOMAXPROCS — and with them the hash keys, the shape of every overlay
	// trie, and the allocation counts the perf gate holds deltas to.
	for _, order := range distinct {
		for _, v := range order {
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
	d.fill(d.indexes, d.postings)

	rules := sigma.Rules()
	_, err = parallel.Map(len(rules), 0, func(r int) (struct{}, error) {
		ru := rules[r]
		plan := d.compat[ru]
		if plan == nil {
			return struct{}{}, nil
		}
		bits := make([]uint64, (n+63)/64)
		for id, tm := range d.rel.All() {
			if patternCompatible(ru, tm) {
				bits[id>>6] |= 1 << (uint(id) & 63)
				plan.patCount++
			}
		}
		plan.patBits = persist.FromSlice(bits)
		return struct{}{}, nil
	})
	return err
}

// fillAdded builds structures registered after construction (Index,
// IndexPostings): one serial pass interns the given columns, then fill.
func (d *Data) fillAdded(indexes []*index, posts []*postings, cols []int) {
	for _, tm := range d.rel.All() {
		for _, c := range cols {
			d.syms.Intern(tm[c])
		}
	}
	d.fill(indexes, posts)
}

// fill builds the given structures' shard tables from the relation. The
// symbol table, which must already hold every indexed value, is only read
// and every task writes its own part of the arrays — no locks. One
// range-parallel pass over the tuples gathers a key column per structure,
// whatever their number; the structures then build side by side, each
// grouping its column by shard and building one table per shard, an index's
// exception table (uniform.go) following its buckets.
func (d *Data) fill(indexes []*index, posts []*postings) {
	n, p := d.rel.Len(), d.nshards
	// Structure k owns [k*n, (k+1)*n) of keys (its key of every tuple, in
	// tuple order) and of gkeys (the same keys grouped by shard); the ids
	// beside gkeys are wide for an index and narrow for a posting list.
	keys := make([]uint64, (len(indexes)+len(posts))*n)
	gkeys := make([]uint64, len(keys))
	wide, narrow := make([]int, len(indexes)*n), make([]int32, len(posts)*n)
	chunks, chunkLen := tupleChunks(n)
	// The errors are dropped because neither pass returns one.
	_, _ = parallel.Map(chunks, 0, func(c int) (struct{}, error) {
		for i := c * chunkLen; i < min((c+1)*chunkLen, n); i++ {
			tm := d.rel.Tuple(i)
			for k, idx := range indexes {
				h, ok := d.hasher.HashTuple(tm, idx.xm)
				if !ok {
					panic("master: build invariant: indexed value not interned")
				}
				keys[k*n+i] = h
			}
			for k, ps := range posts {
				vid, ok := d.syms.ID(tm[ps.col])
				if !ok {
					panic("master: build invariant: posting value not interned")
				}
				keys[(len(indexes)+k)*n+i] = uint64(vid)
			}
		}
		return struct{}{}, nil
	})
	_, _ = parallel.Map(len(indexes)+len(posts), 0, func(k int) (struct{}, error) {
		col, gcol := keys[k*n:(k+1)*n], gkeys[k*n:(k+1)*n]
		if k < len(indexes) {
			idx, ids := indexes[k], wide[k*n:(k+1)*n]
			start := groupByShard(col, gcol, ids, p)
			for s := range idx.shards {
				idx.shards[s].frozen = buildTable(gcol[start[s]:start[s+1]], ids[start[s]:start[s+1]])
				idx.rebuildExceptions(s, d.rel)
			}
		} else {
			k -= len(indexes)
			ps, ids := posts[k], narrow[k*n:(k+1)*n]
			start := groupByShard(col, gcol, ids, p)
			for s := range ps.shards {
				ps.shards[s].frozen = buildTable(gcol[start[s]:start[s+1]], ids[start[s]:start[s+1]])
			}
		}
		return struct{}{}, nil
	})
}

// groupByShard copies a key column (keys[i] belongs to tuple i) into gkeys
// and ids as (key, id) pairs grouped by the key's shard, shard s at
// start[s]:start[s+1]: a counting sort, stable, so a key's ids stay
// ascending.
func groupByShard[ID int | int32](keys, gkeys []uint64, ids []ID, p int) (start [MaxShards + 2]int) {
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
		gkeys[*at], ids[*at] = k, ID(i)
		*at++
	}
	return start
}
