// Package increp reimplements the IncRep baseline the paper compares
// against in §6 Exp-1(7): the cost-based heuristic repairing algorithm of
// Cong et al., "Improving Data Quality: Consistency and Accuracy"
// (VLDB 2007 — reference [14]). Given a dirty relation and a set of
// constant CFDs, IncRep makes each tuple satisfy the constraints by the
// cheapest attribute modifications, where the cost of changing value v to
// v' is w(A) · dist(v, v') (attribute weight times normalized edit
// distance).
//
// Unlike CertainFix, IncRep repairs without certainty: a violation can be
// resolved either by overwriting the rhs attribute with the pattern
// constant or by moving an lhs attribute away from the pattern, whichever
// is cheaper — so it may "fix" the wrong side, which is exactly the
// failure mode the paper's Example 1 describes and Exp-1(7) measures
// (its F-measure collapses as the noise rate grows).
package increp

import (
	"sort"

	"repro/internal/experiments/cfd"
	"repro/internal/experiments/textdist"
	"repro/internal/pattern"
	"repro/internal/relation"
)

// Options tunes the repair.
type Options struct {
	// Weights holds per-attribute weights; nil means every attribute
	// weighs 1. Higher weight = more reluctant to change.
	Weights []float64
	// MaxIterations caps the per-tuple repair loop (0 = 2·arity).
	MaxIterations int
	// CandidateCap bounds the alternative values considered when breaking
	// an lhs match (0 = 50).
	CandidateCap int
}

// Repairer repairs tuples against an indexed constant-CFD set.
type Repairer struct {
	cfds *cfd.Set
	opts Options
	// domain holds, per attribute, the candidate repair values observed
	// in the CFD constants (the active domain of the constraints).
	domain map[int][]relation.Value
}

// New builds a repairer, precomputing the per-attribute candidate values.
func New(cfds *cfd.Set, opts Options) *Repairer {
	if opts.CandidateCap <= 0 {
		opts.CandidateCap = 50
	}
	r := &Repairer{cfds: cfds, opts: opts, domain: map[int][]relation.Value{}}
	seen := map[int]map[relation.Value]bool{}
	add := func(p int, v relation.Value) {
		if seen[p] == nil {
			seen[p] = map[relation.Value]bool{}
		}
		if !seen[p][v] && len(r.domain[p]) < opts.CandidateCap {
			seen[p][v] = true
			r.domain[p] = append(r.domain[p], v)
		}
	}
	for _, c := range cfds.CFDs() {
		lp := c.LHSPattern()
		for i := 0; i < lp.Len(); i++ {
			pos, cell := lp.CellAt(i)
			if cell.Kind == pattern.Const {
				add(pos, cell.Val)
			}
		}
		if c.IsConstant() {
			add(c.RHS(), c.RHSCell().Val)
		}
	}
	for p := range r.domain {
		vs := r.domain[p]
		sort.Slice(vs, func(i, j int) bool { return vs[i].Less(vs[j]) })
	}
	return r
}

func (r *Repairer) weight(p int) float64 {
	if r.opts.Weights == nil || p >= len(r.opts.Weights) {
		return 1
	}
	return r.opts.Weights[p]
}

// cost is w(A) · normalized edit distance between the rendered values.
func (r *Repairer) cost(p int, from, to relation.Value) float64 {
	return r.weight(p) * textdist.Normalized(from.Encode(), to.Encode())
}

// RepairTuple makes t satisfy the constant CFDs by cheapest-first
// modifications, in place. Once a cell is repaired it is frozen — it is
// never modified again — which guarantees termination (the device [14]
// uses for the same purpose); CFDs whose every resolution would touch a
// frozen cell are left violated. Returns the positions changed.
func (r *Repairer) RepairTuple(t relation.Tuple) []int {
	maxIter := r.opts.MaxIterations
	if maxIter <= 0 {
		maxIter = 2 * len(t)
	}
	var frozen relation.AttrSet
	var changedSet relation.AttrSet
	skipped := map[*cfd.CFD]bool{}
	for iter := 0; iter < maxIter; iter++ {
		progressed := false
		for _, c := range r.cfds.ViolationsOf(t) {
			if skipped[c] {
				continue
			}
			pos, val, ok := r.cheapestResolution(t, c, frozen)
			if !ok {
				skipped[c] = true
				continue
			}
			t[pos] = val
			frozen.Add(pos)
			changedSet.Add(pos)
			progressed = true
			break // re-detect violations after every change
		}
		if !progressed {
			break
		}
	}
	return changedSet.Positions()
}

// cheapestResolution picks the least-cost modification resolving one
// constant-CFD violation: overwrite the rhs with the pattern constant, or
// move one constant-matched lhs attribute to the nearest other domain
// value so the pattern no longer applies. Frozen positions are excluded.
func (r *Repairer) cheapestResolution(t relation.Tuple, c *cfd.CFD, frozen relation.AttrSet) (int, relation.Value, bool) {
	bestPos, bestVal, bestCost, found := -1, relation.Null, 0.0, false
	consider := func(pos int, val relation.Value) {
		if frozen.Has(pos) {
			return
		}
		cost := r.cost(pos, t[pos], val)
		if !found || cost < bestCost {
			bestPos, bestVal, bestCost, found = pos, val, cost, true
		}
	}
	// Option (a): adopt the rhs constant.
	consider(c.RHS(), c.RHSCell().Val)
	// Option (b): break the lhs match on some constant cell.
	lp := c.LHSPattern()
	for i := 0; i < lp.Len(); i++ {
		pos, cell := lp.CellAt(i)
		if cell.Kind != pattern.Const {
			continue
		}
		for _, v := range r.domain[pos] {
			if v.Equal(cell.Val) {
				continue
			}
			consider(pos, v)
		}
	}
	return bestPos, bestVal, found
}

// RepairRelation repairs every tuple of a relation in place and returns
// the total number of changed cells.
func (r *Repairer) RepairRelation(rel *relation.Relation) int {
	total := 0
	for _, t := range rel.All() {
		total += len(r.RepairTuple(t))
	}
	return total
}
