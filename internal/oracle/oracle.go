// Package oracle holds the reference implementations the property tests
// hold the production engines to: the paper's definitions executed
// literally (Explore, the §4 oracles) and the pre-compilation forms of the
// §5 paths (NaiveFix, ApplicableRules, Suggest, GrowAndMinimize).
//
// The contract: everything here is slow and obviously correct, is never
// on a request path, and is imported only by _test.go files
// (imports_test.go enforces the last part). An oracle that shares a helper
// with the code it checks cannot catch a bug in that helper, so the
// definitions the oracles need — the certain values of §3, condition (b)
// of §5.2, ΣZ and the Thm 1 instantiation — are written out here, not
// borrowed. That holds for the master too: the oracles read Dm's cells
// only (Len, Cell, Tuple) and decide t[X] = tm[Xm] by scanning them, never
// through an index probe (imports_test.go enforces it), so they hold the
// master's probes to a scan and may ask about any rule, a refined ϕ+
// included. The oracles take (Σ, Dm) and return plain values, rule sets
// and analysis verdicts, never a suggest type: suggest's white-box tests
// import this package.
package oracle

import (
	"iter"
	"slices"

	"repro/internal/master"
	"repro/internal/relation"
	"repro/internal/rule"
)

// agreeing is the one t[X] = tm[Xm] test of the oracles, decided by
// scanning Dm's cells: it yields the ids, ascending, of the master tuples
// tm with t[x] = tm[λϕ(x)] for every lhs attribute x of ru that on holds.
// With on ⊇ X it is the match of §3; with on = Z it is the agreement of
// condition (c) (§5.2). It does not test the rule's pattern.
func agreeing(dm *master.Data, ru *rule.Rule, t relation.Tuple, on relation.AttrSet) iter.Seq[int] {
	x, xm := ru.LHS(), ru.LHSM()
	return func(yield func(int) bool) {
		for id := range dm.Len() {
			agrees := true
			for i, p := range x {
				if on.Has(p) && !t[p].Equal(dm.Cell(id, xm[i])) {
					agrees = false
					break
				}
			}
			if agrees && !yield(id) {
				return
			}
		}
	}
}

// rhsValues appends to dst the values tm[Bm] it does not hold yet over the
// master tuples applicable with ru to t (t matches ru's pattern and
// t[X] = tm[Xm]), ordered by the smallest id carrying each.
func rhsValues(dst []relation.Value, dm *master.Data, ru *rule.Rule, t relation.Tuple) []relation.Value {
	if !ru.MatchesPattern(t) {
		return dst
	}
	for id := range agreeing(dm, ru, t, ru.LHSSet()) {
		if v := dm.Cell(id, ru.RHSM()); !slices.Contains(dst, v) {
			dst = append(dst, v)
		}
	}
	return dst
}
