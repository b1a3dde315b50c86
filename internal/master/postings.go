package master

import (
	"repro/internal/persist"
	"repro/internal/relation"
	"repro/internal/rule"
)

// This file implements the inverted-postings layer: per indexed master
// column, a (interned value id → ascending []tupleID) posting list, plus a
// per-rule pattern-support bitmap of the master tuples satisfying the
// rule's pattern cells on the λϕ-mapped lhs attributes. Both are built
// once at NewForRules.
//
// They serve the two §5 paths the full-key hash indexes cannot: the
// per-rule "does any master tuple support this rule's pattern" test
// (supportMap of region derivation — now a popcount done at build time)
// and condition (c) of the Σ_t[Z] derivation with a *partially* validated
// lhs, which previously scanned all of Dm per rule per round — the term
// that made per-round latency grow linearly in |Dm| (Fig. 12a/b). With
// postings, the partial-lhs test walks the smallest posting list of the
// validated attributes, filtered by the pattern bitmap, and falls back to
// the scan only when that list is so unselective (≥ half of Dm) that
// scanning is no worse.
//
// Posting lists are sharded like the hash indexes (see shard.go): a value id
// routes to one shard, which holds the value's whole list, ascending — so the
// walk and its fallback decision are the same at every P. The pattern bitmap
// is one dense id-indexed array per rule, not sharded: ids are global, and
// deltas flip single bits under the writer lock that serializes them anyway.

// postings is the inverted index over one master column: interned value
// id → ascending tuple ids, partitioned by value id into one copy-on-write
// layered map per shard.
type postings struct {
	col    int // Rm position
	shards []layered[uint32, int32]
}

// fork derives the next snapshot's view of the posting lists.
func (ps *postings) fork() *postings {
	np := &postings{col: ps.col, shards: make([]layered[uint32, int32], len(ps.shards))}
	for s := range ps.shards {
		np.shards[s] = ps.shards[s].fork()
	}
	return np
}

// size returns the total number of ids across all shards (tests, stats).
func (ps *postings) size() int {
	n := 0
	for s := range ps.shards {
		n += ps.shards[s].size()
	}
	return n
}

// compatPlan is a rule's compiled compatibility plan.
type compatPlan struct {
	// patBits is the bitmap over global tuple ids of "pattern cells on
	// λϕ(Xp ∩ X) hold", ⌈|Dm|/64⌉ words in a copy-on-write vector: a delta
	// copies the 64-word chunks its bits fall in, not the bitmap.
	patBits  persist.Vec[uint64]
	patCount int         // popcount of patBits
	posts    []*postings // aligned with the rule's X/Xm lists
}

// has reports tuple id's pattern bit.
func (cp *compatPlan) has(id int) bool {
	return cp.patBits.At(id>>6)&(1<<(uint(id)&63)) != 0
}

// patternCompatible reports tm[λϕ(Xp ∩ X)] ≈ tp[Xp ∩ X] for the master
// tuple stored as row: the master-side pattern test of §5.2 (patterns
// constrain t; on master tuples only the cells over lhs attributes carry
// over through λϕ). Only the cells a pattern names are turned into values.
func patternCompatible(ru *rule.Rule, row []uint32, syms *relation.Symbols) bool {
	x, xm := ru.LHSRef(), ru.LHSMRef()
	tp := ru.Pattern()
	for i := range x {
		if cell, has := tp.CellFor(x[i]); has && !cell.Matches(syms.Value(row[xm[i]])) {
			return false
		}
	}
	return true
}

// PatternSupported reports whether some master tuple satisfies ru's
// pattern cells on the λϕ-mapped lhs attributes — the per-rule
// master-support bit behind region derivation, precomputed at NewForRules
// (a popcount) with a scan fallback for rules outside the plan map.
func (d *Data) PatternSupported(ru *rule.Rule) bool {
	if plan, ok := d.compat[ru]; ok {
		return plan.patCount > 0
	}
	for _, row := range d.rows.All() {
		if patternCompatible(ru, row, d.syms) {
			return true
		}
	}
	return false
}

// CompatibleExists decides condition (c) of the Σ_t[Z] derivation (§5.2):
// is there a master tuple that agrees with t on the validated lhs
// attributes (t[x] = tm[λϕ(x)] for x ∈ X ∩ Z) and satisfies the rule's
// pattern cells on the λϕ-mapped lhs attributes? A fully validated lhs
// probes the hash index (O(1)); a partially validated one walks the
// smallest posting list of the validated attributes under the pattern
// bitmap, falling back to the Dm scan when the postings are degenerate.
func (d *Data) CompatibleExists(ru *rule.Rule, t relation.Tuple, zSet relation.AttrSet) bool {
	found, _ := d.compatible(ru, t, zSet)
	return found
}

// compatible is CompatibleExists plus whether the Dm-scan fallback ran —
// separated so tests can pin the adaptive fallback policy.
func (d *Data) compatible(ru *rule.Rule, t relation.Tuple, zSet relation.AttrSet) (found, scanned bool) {
	x, xm := ru.LHSRef(), ru.LHSMRef()
	plan := d.compat[ru]
	var buf probeIDs
	ids := buf.take(len(x))
	if zSet.HasAll(x) {
		// Fully validated lhs: one O(1) index probe on tm[Xm] = t[X], each
		// candidate checked against the pattern bitmap.
		if plan != nil {
			if idx, ok := d.plans[ru]; ok {
				h, ok := d.hasher.ProbeTuple(t, x, ids)
				if !ok {
					return false, false
				}
				bucket := idx.shard(h).list(h)
				for _, chunk := range bucket.chunks() {
					for _, id := range chunk {
						if plan.has(id) && d.matches(id, xm, ids) {
							return true, false
						}
					}
				}
				return false, false
			}
		}
		for _, id := range d.MatchIDs(ru, t) {
			if plan != nil {
				if plan.has(id) {
					return true, false
				}
			} else if patternCompatible(ru, d.rows.At(id), d.syms) {
				return true, false
			}
		}
		return false, false
	}
	if plan == nil {
		return d.compatibleScan(ru, t, zSet), true
	}
	// Partially validated lhs: pick the smallest posting list among the
	// validated attributes. A value the symbol table does not know occurs in
	// no master tuple, one that occurs only in other columns has an empty
	// list here, and X ∩ Z = ∅ means only the pattern constrains the master
	// side.
	if !d.validatedIDs(x, t, zSet, ids) {
		return false, false
	}
	var best idList[int32]
	size, constrained := 0, false
	for i, p := range x {
		if !zSet.Has(p) {
			continue
		}
		if lst := plan.posts[i].shard(ids[i]).list(ids[i]); !constrained || lst.len() < size {
			best, size, constrained = lst, lst.len(), true
		}
	}
	if !constrained {
		return plan.patCount > 0, false
	}
	if 2*size >= d.rows.Len() {
		// Degenerate postings (the best list covers at least half of Dm): a
		// scan costs the same and avoids the per-id indirection.
		return d.compatibleScan(ru, t, zSet), true
	}
	// Walk it under the pattern bitmap, early-exiting on the first
	// compatible tuple.
	for _, chunk := range best.chunks() {
		for _, id := range chunk {
			if plan.has(int(id)) && agreeOn(d.rows.At(int(id)), x, xm, zSet, ids) {
				return true, false
			}
		}
	}
	return false, false
}

// validatedIDs looks up, into ids[i], the id of t's value on each validated
// x[i]; false when the symbol table does not know one of them, which then
// occurs in no master tuple.
func (d *Data) validatedIDs(x []int, t relation.Tuple, zSet relation.AttrSet, ids []uint32) bool {
	for i, p := range x {
		if zSet.Has(p) {
			var ok bool
			if ids[i], ok = d.syms.ID(t[p]); !ok {
				return false
			}
		}
	}
	return true
}

// agreeOn reports whether row carries ids[i] on xm[i] for every validated
// x[i].
func agreeOn(row []uint32, x, xm []int, zSet relation.AttrSet, ids []uint32) bool {
	for i, p := range x {
		if zSet.Has(p) && row[xm[i]] != ids[i] {
			return false
		}
	}
	return true
}

// compatibleScan is the naive O(|Dm|) fallback, and the reference the
// postings path is property-tested against here (internal/suggest holds
// CompatibleExists to a scan over materialized values).
func (d *Data) compatibleScan(ru *rule.Rule, t relation.Tuple, zSet relation.AttrSet) bool {
	x, xm := ru.LHSRef(), ru.LHSMRef()
	var buf probeIDs
	ids := buf.take(len(x))
	if !d.validatedIDs(x, t, zSet, ids) {
		return false
	}
	for _, row := range d.rows.All() {
		if agreeOn(row, x, xm, zSet, ids) && patternCompatible(ru, row, d.syms) {
			return true
		}
	}
	return false
}
