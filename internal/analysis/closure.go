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
// A scratch serves every Σ: getScratch sizes it to the schema's arity and
// the check sizes its per-rule masks to Σ.
var scratchPool = sync.Pool{New: func() any { return &concreteScratch{clo: rule.NewClosureScratch()} }}

// concreteScratch is one check's mutable state: the tuple under closure,
// the buffer the master probe appends a rule's rhs values to, the
// arity-indexed per-round assignments with the list of attributes they
// touched (so that resetting them costs what the check wrote, not the
// arity), and step (g)'s state — which rules validate the closure's value
// of their rhs, the mask and closure scratch of the reachability, and the
// reachable set per disputed attribute. Z and the validated set are
// one-word values on the check's own stack.
type concreteScratch struct {
	t         relation.Tuple
	probe     []relation.Value
	assign    [][]relation.Value
	touched   []int
	validator []bool
	off       []bool
	clo       *rule.ClosureScratch
	lates     []lateConflict
	reachAttr []int
	reachSet  []relation.AttrSet
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
	}
	sc.t = sc.t[:arity]
	sc.assign = sc.assign[:arity]
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
	sc.touched, sc.lates = sc.touched[:0], sc.lates[:0]
	sc.reachAttr, sc.reachSet = sc.reachAttr[:0], sc.reachSet[:0]
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
// a reachability analysis over the validators (the dep(·) bookkeeping of
// the proof, made transitive).
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

	// Validators: the rules with a pair that assigns their derived rhs its
	// closure value. Their premises are the alternative ways any sequence
	// can validate that attribute.
	if cap(sc.validator) < len(rules) {
		sc.validator = make([]bool, len(rules))
		sc.off = make([]bool, len(rules))
	}
	sc.validator, sc.off = sc.validator[:len(rules)], sc.off[:len(rules)]
	validator := sc.validator
	clear(validator)
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
			if v.Equal(t[b]) {
				validator[i] = true
			} else {
				sc.lates = append(sc.lates, lateConflict{attr: b, value: v, rule: i})
			}
		}
	}

	// Step (g): a disagreeing pair is a genuine conflict iff its premise
	// can be validated without first validating the disputed attribute.
	// The reachable set depends only on the disputed attribute, so rules
	// disputing the same attribute share one computation.
	for _, lc := range sc.lates {
		k := slices.Index(sc.reachAttr, lc.attr)
		if k < 0 {
			k = len(sc.reachAttr)
			sc.reachAttr = append(sc.reachAttr, lc.attr)
			sc.reachSet = append(sc.reachSet, c.reachableWithout(sc, base, lc.attr))
		}
		if sc.reachSet[k].ContainsSet(rules[lc.rule].PremiseSet()) {
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

// reachableWithout returns the attributes some derivation from base
// validates without ever validating avoid. Each validator is a rule of Σ,
// so this is one closure of Σ's program with every rule masked but the
// validators of attributes other than avoid. avoid is not in base (it was
// derived), and no unmasked rule writes it, so a validator whose premise
// needs avoid never fires.
func (c *Checker) reachableWithout(sc *concreteScratch, base relation.AttrSet, avoid int) relation.AttrSet {
	for i, ru := range c.sigma.Rules() {
		sc.off[i] = !sc.validator[i] || ru.RHS() == avoid
	}
	c.prog.Closure(base, sc.off, sc.clo)
	var got relation.AttrSet
	for a := range c.sigma.Schema().Arity() {
		if sc.clo.Has(a) {
			got.Add(a)
		}
	}
	return got
}

// failf builds a negative verdict.
func failf(format string, args ...any) Verdict {
	return Verdict{OK: false, Detail: fmt.Sprintf(format, args...)}
}
