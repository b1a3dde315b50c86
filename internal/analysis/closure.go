package analysis

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/relation"
	"repro/internal/rule"
)

// ConcreteVerdict runs the Theorem-4 check directly on one concrete value
// vector over Z — the entry point used by the region-derivation heuristics
// and the interactive framework, which test specific tuples' validated
// values rather than whole tableaus. With coverage=false it decides
// consistency only; with coverage=true it additionally requires every R
// attribute to be covered. A negative verdict carries its Detail.
func (c *Checker) ConcreteVerdict(z []int, vals []relation.Value, coverage bool) Verdict {
	return c.checkConcrete(z, vals, coverage, true)
}

// ConcreteOK is ConcreteVerdict's OK alone: the same check, with no Detail
// built for a negative verdict. Region derivation and the per-round
// consistency test read only this.
func (c *Checker) ConcreteOK(z []int, vals []relation.Value, coverage bool) bool {
	return c.checkConcrete(z, vals, coverage, false).OK
}

// scratchPool holds the concrete check's scratch, one per call in flight.
// A scratch serves every Σ: getScratch sizes it to the schema's arity.
var scratchPool = sync.Pool{New: func() any { return new(concreteScratch) }}

// concreteScratch is one check's mutable state: the tuple under closure,
// the buffer the master probe appends a rule's rhs values to, and the
// arity-indexed per-round assignments and validator sets with the lists of
// attributes they touched (so that resetting them costs what the check
// wrote, not the arity). Z and the validated set are one-word values on
// the check's own stack.
type concreteScratch struct {
	t          relation.Tuple
	probe      []relation.Value
	assign     [][]relation.Value
	touched    []int
	validators [][]relation.AttrSet
	vtouched   []int
	lates      []lateConflict
}

// lateConflict is a pair that would assign the closure-validated attribute
// attr the other value value, from the premise of rule rule.
type lateConflict struct {
	attr  int
	value relation.Value
	rule  int
}

// getScratch takes a scratch from the pool, sized to arity and set up for
// a check of zPos = vals.
func getScratch(arity int, zPos []int, vals []relation.Value) *concreteScratch {
	sc := scratchPool.Get().(*concreteScratch)
	if cap(sc.t) < arity {
		sc.t = relation.NewTuple(arity)
		sc.assign = make([][]relation.Value, arity)
		sc.validators = make([][]relation.AttrSet, arity)
	}
	sc.t = sc.t[:arity]
	sc.assign = sc.assign[:arity]
	sc.validators = sc.validators[:arity]
	clear(sc.t)
	for i, p := range zPos {
		sc.t[p] = vals[i]
	}
	return sc
}

// putScratch empties what the check wrote and returns the scratch to the
// pool.
func putScratch(sc *concreteScratch) {
	for _, b := range sc.touched {
		sc.assign[b] = sc.assign[b][:0]
	}
	for _, b := range sc.vtouched {
		sc.validators[b] = sc.validators[b][:0]
	}
	sc.touched, sc.vtouched, sc.lates = sc.touched[:0], sc.vtouched[:0], sc.lates[:0]
	scratchPool.Put(sc)
}

// checkConcrete is the PTIME consistency/coverage check of Theorem 4 for a
// single fully-instantiated pattern row: Z positions zPos with concrete
// values vals (aligned with zPos). A negative verdict's Detail is built
// only when detail is set.
//
// It runs the canonical closure — every applicable (rule, master) pair is
// applied round by round (steps (c)–(f) of the proof) — detecting
// same-round conflicts directly (step (e); the lowest such attribute is
// named). It then performs the step-(g) analysis: a pair that disagrees
// with an already-validated attribute B is a genuine inconsistency iff the
// pair could fire in some order before B is validated, which is decided by
// a reachability analysis over the validator sets (the dep(·) bookkeeping
// of the proof, made transitive).
//
// internal/oracle.ConcreteVerdict is the same check written with a map per
// round and a premise kept with each late pair; the property tests hold
// this one to it.
func (c *Checker) checkConcrete(zPos []int, vals []relation.Value, coverage, detail bool) Verdict {
	r := c.sigma.Schema()
	sc := getScratch(r.Arity(), zPos, vals)
	defer putScratch(sc)
	rules := c.sigma.Rules()
	t := sc.t
	base := relation.NewAttrSet(zPos...)
	cur := base

	// Canonical closure: rounds of simultaneous application. A round
	// collects, per rhs attribute, the distinct values its applicable rules
	// assign (rule order, then smallest master id).
	for {
		for _, b := range sc.touched {
			sc.assign[b] = sc.assign[b][:0]
		}
		sc.touched = sc.touched[:0]
		for _, ru := range rules {
			b := ru.RHS()
			if cur.Has(b) || !cur.ContainsSet(ru.PremiseSet()) {
				continue
			}
			had := len(sc.assign[b])
			sc.assign[b], _ = c.dm.AppendRHSValues(sc.assign[b], ru, t)
			if had == 0 && len(sc.assign[b]) > 0 {
				sc.touched = append(sc.touched, b)
			}
		}
		if len(sc.touched) == 0 {
			break
		}
		conflict := -1
		for _, b := range sc.touched {
			if len(sc.assign[b]) > 1 && (conflict < 0 || b < conflict) {
				conflict = b
			}
		}
		if conflict >= 0 {
			// Step (e): two pairs applicable at the same state assign
			// different values to one attribute.
			if !detail {
				return Verdict{}
			}
			return failf("attribute %s gets conflicting values %v",
				r.Attr(conflict).Name, sc.assign[conflict])
		}
		for _, b := range sc.touched {
			t[b] = sc.assign[b][0]
			cur.Add(b)
		}
	}

	// Validator sets: for each derived attribute A, the premise sets of
	// every pair that assigns A its closure value. These are the
	// alternative ways any sequence can validate A.
	for i, ru := range rules {
		b := ru.RHS()
		if base.Has(b) || !cur.Has(b) {
			continue // base attributes are protected; unassigned rhs is moot
		}
		if !cur.ContainsSet(ru.PremiseSet()) {
			continue
		}
		sc.probe, _ = c.dm.AppendRHSValues(sc.probe[:0], ru, t)
		for _, v := range sc.probe {
			if !v.Equal(t[b]) {
				sc.lates = append(sc.lates, lateConflict{attr: b, value: v, rule: i})
				continue
			}
			if len(sc.validators[b]) == 0 {
				sc.vtouched = append(sc.vtouched, b)
			}
			sc.validators[b] = append(sc.validators[b], ru.PremiseSet())
		}
	}

	// Step (g): a disagreeing pair is a genuine conflict iff its premise
	// can be validated without first validating the disputed attribute.
	// The reachable set depends only on the disputed attribute, so rules
	// disputing the same attribute share one computation.
	var reachAttr []int
	var reachSet []relation.AttrSet
	for _, lc := range sc.lates {
		k := slices.Index(reachAttr, lc.attr)
		if k < 0 {
			k = len(reachAttr)
			reachAttr = append(reachAttr, lc.attr)
			reachSet = append(reachSet, base.Union(validatableWithout(base, sc.validators, sc.vtouched, lc.attr)))
		}
		if reachSet[k].ContainsSet(rules[lc.rule].PremiseSet()) {
			if !detail {
				return Verdict{}
			}
			return failf("attribute %s has order-dependent values %v and %v",
				r.Attr(lc.attr).Name, t[lc.attr], lc.value)
		}
	}

	if coverage && cur.Len() != r.Arity() {
		if !detail {
			return Verdict{}
		}
		var missing []string
		for p := 0; p < r.Arity(); p++ {
			if !cur.Has(p) {
				missing = append(missing, r.Attr(p).Name)
			}
		}
		return failf("attributes not covered: %v", missing)
	}
	return okVerdict
}

// validatableWithout computes the set of attributes that can be validated
// by some derivation whose every step avoids validating `avoid`: an
// attribute joins the set when one of its validator premises lies entirely
// within base ∪ (already-derivable attributes). validators is indexed by
// attribute, one entry per attribute of R; attrs lists those holding any. Each (premise →
// attribute) validator is a pseudo-rule, so the least fixpoint is one
// counter-based closure pass (rule.CompileClosure) instead of the
// quadratic re-scan; validators touching `avoid` are dropped at compile
// time. Only a check that met a disagreeing pair gets here.
func validatableWithout(base relation.AttrSet, validators [][]relation.AttrSet, attrs []int, avoid int) relation.AttrSet {
	var prems []relation.AttrSet
	var rhs []int
	for _, a := range attrs {
		if a == avoid {
			continue
		}
		for _, prem := range validators[a] {
			if prem.Has(avoid) {
				continue
			}
			prems = append(prems, prem)
			rhs = append(rhs, a)
		}
	}
	prog := rule.CompileClosure(len(validators), prems, rhs)
	sc := rule.NewClosureScratch()
	prog.Closure(base, nil, sc)
	var ok relation.AttrSet
	for _, a := range attrs {
		if a != avoid && sc.Has(a) && !base.Has(a) {
			ok.Add(a)
		}
	}
	return ok
}

// failf builds a negative verdict.
func failf(format string, args ...any) Verdict {
	return Verdict{OK: false, Detail: fmt.Sprintf(format, args...)}
}
