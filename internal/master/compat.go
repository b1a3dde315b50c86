package master

import (
	"repro/internal/pattern"
	"repro/internal/relation"
	"repro/internal/rule"
)

// This file implements condition (c) of the Σ_t[Z] derivation (§5.2) and
// the per-rule pattern support behind region derivation: per rule, the
// count of master tuples satisfying the rule's pattern cells on the
// λϕ-mapped lhs attributes — it answers "does any master tuple support this
// rule's pattern" — and, for a rule whose Xm has several columns, the
// one-column index of each of them.
//
// With the lhs fully validated, condition (c) is the §5.1 probe of the
// rule's own index. With it PARTLY validated it is the same probe on a part
// of Xm: the bucket of each validated column's one-column index is the list
// of tuples agreeing with t there, so the test walks the smallest of them —
// instead of Dm, the term that made per-round latency grow linearly in |Dm|
// (Fig. 12a/b). The walk exits at the first compatible tuple. A bucket
// covering most of Dm is walked too: on DBLP at |Dm| 100k, where the `type`
// column's bucket covers over half of Dm, a fix measured no slower than
// with a whole-Dm scan in its place (median of 5 runs 14.1 against 19.7 µs,
// ranges overlapping). No benchmark gates a walk that finds no compatible
// row in such a bucket; it reads every id of the bucket. A one-column
// Xm is either fully validated or not at all, so only the columns of a
// multi-column Xm get an index for this — an ordinary index (master.go),
// shared with any rule whose whole Xm is that column. Both probes load each
// candidate's row to compare its cells, and test the rule's pattern on that
// same row.
//
// Which one-column indexes a rule reads is Σ's to decide, so it is in the
// lineage's plan (rulePlan.posts); the support count follows the rows, so
// each snapshot holds its own (Data.supported).

// patternCompatible reports tm[λϕ(Xp ∩ X)] ≈ tp[Xp ∩ X] for the master
// tuple stored as row: the master-side pattern test of §5.2 (patterns
// constrain t; on master tuples only the cells over lhs attributes carry
// over through λϕ). Only the cells a pattern names are turned into values.
func patternCompatible(ru *rule.Rule, row []uint32, syms *relation.Symbols) bool {
	x, xm := ru.LHS(), ru.LHSM()
	tp := ru.Pattern()
	for i := range x {
		if cell, has := tp.CellFor(x[i]); has && !cell.Matches(syms.Value(row[xm[i]])) {
			return false
		}
	}
	return true
}

// idCell is a pattern cell resolved against a symbol table: the master
// column it constrains and the id of its value, which the column's cell must
// equal (ne false) or must not (ne true).
type idCell struct {
	col int
	id  uint32
	ne  bool
}

// countSupported counts the rows satisfying the pattern of the plan's r-th
// rule (patternCompatible's test, on ids). A pattern cell on an lhs
// attribute is a wildcard or the equality or inequality with one value, so
// it names at most one symbol, resolved once here: a constant Dm does not
// hold matches no row, and its negation every row. A row then costs one id
// comparison per remaining cell, and a rule left with none is supported by
// every tuple: its count is |Dm|, with no scan.
func (d *Data) countSupported(r int) int {
	ru := d.plan.rules[r].ru
	x, xm := ru.LHS(), ru.LHSM()
	tp := ru.Pattern()
	var buf [8]idCell
	cells := buf[:0]
	for i := range x {
		cell, has := tp.CellFor(x[i])
		if !has || cell.Kind == pattern.Wildcard {
			continue
		}
		id, ok := d.syms.ID(cell.Val)
		switch {
		case ok:
			cells = append(cells, idCell{xm[i], id, cell.Kind == pattern.NotConst})
		case cell.Kind == pattern.Const:
			return 0
		}
	}
	if len(cells) == 0 {
		return d.rows.Len()
	}
	n := 0
rows:
	for _, row := range d.rows.All() {
		for _, c := range cells {
			if (row[c.col] == c.id) == c.ne {
				continue rows
			}
		}
		n++
	}
	return n
}

// PatternSupported reports whether some master tuple satisfies ru's
// pattern cells on the λϕ-mapped lhs attributes — the per-rule
// master support behind region derivation, a count kept with the rows
// (Data.supported).
func (d *Data) PatternSupported(ru *rule.Rule) bool {
	return d.supported[d.ruleAt(ru)] > 0
}

// CompatibleExists decides condition (c) of the Σ_t[Z] derivation (§5.2):
// is there a master tuple that agrees with t on the validated lhs
// attributes (t[x] = tm[λϕ(x)] for x ∈ X ∩ Z) and satisfies the rule's
// pattern cells on the λϕ-mapped lhs attributes? A fully validated lhs
// probes the rule's index (O(1)); a partially validated one walks the
// smallest one-column bucket of the validated attributes.
func (d *Data) CompatibleExists(ru *rule.Rule, t relation.Tuple, zSet relation.AttrSet) bool {
	r := d.ruleAt(ru)
	x, xm := ru.LHS(), ru.LHSM()
	var buf probeIDs
	ids := buf.take(len(x))
	if zSet.HasAll(x) {
		// Fully validated lhs: one O(1) index probe on tm[Xm] = t[X], each
		// candidate's row matched and its pattern tested.
		h, ok := d.syms.ProbeTuple(t, x, ids)
		if !ok {
			return false
		}
		bucket := d.indexAt(d.plan.rules[r].index).shard(h).list(h)
		for _, chunk := range bucket.chunks() {
			for _, id := range chunk {
				if row := d.rows.At(id); rowMatches(row, xm, ids) && patternCompatible(ru, row, d.syms) {
					return true
				}
			}
		}
		return false
	}
	posts := d.plan.rules[r].posts
	// Partially validated lhs: pick the smallest bucket among the validated
	// attributes' one-column indexes. A value the symbol table does not know
	// occurs in no master tuple, one that occurs only in other columns has an
	// empty bucket here, and X ∩ Z = ∅ means only the pattern constrains the
	// master side.
	var best idList
	size, constrained := 0, false
	for i, p := range x {
		if !zSet.Has(p) {
			continue
		}
		h, ok := d.syms.ProbeTuple(t, x[i:i+1], ids[i:i+1])
		if !ok {
			return false
		}
		if lst := d.indexAt(posts[i]).shard(h).list(h); !constrained || lst.len() < size {
			best, size, constrained = lst, lst.len(), true
		}
	}
	if !constrained {
		return d.supported[r] > 0
	}
	// Walk it, early-exiting on the first compatible tuple. agreeOn verifies
	// every validated cell, the bucket's own column included, so a hash
	// collision inside it costs a comparison.
	for _, chunk := range best.chunks() {
		for _, id := range chunk {
			if row := d.rows.At(id); agreeOn(row, x, xm, zSet, ids) && patternCompatible(ru, row, d.syms) {
				return true
			}
		}
	}
	return false
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
