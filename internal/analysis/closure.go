package analysis

import (
	"repro/internal/fix"
	"repro/internal/relation"
	"repro/internal/rule"
)

// ConcreteVerdict runs the Theorem-4 check directly on one concrete value
// vector over Z — the entry point used by the region-derivation heuristics
// and the interactive framework, which test specific tuples' validated
// values rather than whole tableaus. With coverage=false it decides
// consistency only; with coverage=true it additionally requires every R
// attribute to be covered.
func (c *Checker) ConcreteVerdict(z []int, vals []relation.Value, coverage bool) Verdict {
	return c.checkConcrete(z, vals, coverage)
}

// checkConcrete is the PTIME consistency/coverage check of Theorem 4 for a
// single fully-instantiated pattern row: Z positions zPos with concrete
// values vals (aligned with zPos).
//
// It runs the canonical closure — every applicable (rule, master) pair is
// applied round by round (steps (c)–(f) of the proof) — detecting
// same-round conflicts directly. It then performs the step-(g) analysis:
// a pair that disagrees with an already-validated attribute B is a genuine
// inconsistency iff the pair could fire in some order before B is
// validated, which is decided by a reachability analysis over the
// validator sets (the dep(·) bookkeeping of the proof, made transitive).
func (c *Checker) checkConcrete(zPos []int, vals []relation.Value, coverage bool) Verdict {
	r := c.sigma.Schema()
	t := relation.NewTuple(r.Arity())
	base := relation.NewAttrSet(zPos...)
	for i, p := range zPos {
		t[p] = vals[i]
	}
	cur := base.Clone()

	// Canonical closure: rounds of simultaneous application.
	for {
		assignments := fix.ApplicableAssignments(c.sigma, c.dm, t, cur)
		if len(assignments) == 0 {
			break
		}
		for b, vs := range assignments {
			if len(vs) > 1 {
				// Step (e): two pairs applicable at the same state assign
				// different values to one attribute.
				return failf("attribute %s gets conflicting values %v",
					r.Attr(b).Name, vs)
			}
		}
		for b, vs := range assignments {
			t[b] = vs[0]
			cur.Add(b)
		}
	}

	// Validator sets: for each derived attribute A, the premise sets of
	// every pair that assigns A its closure value. These are the
	// alternative ways any sequence can validate A.
	validators := map[int][]relation.AttrSet{}
	type lateConflict struct {
		attr    int
		value   relation.Value
		premise relation.AttrSet
	}
	var lates []lateConflict
	for _, ru := range c.sigma.Rules() {
		b := ru.RHS()
		if base.Has(b) || !cur.Has(b) {
			continue // base attributes are protected; unassigned rhs is moot
		}
		if !cur.ContainsSet(ru.PremiseSet()) || !ru.MatchesPattern(t) {
			continue
		}
		for _, v := range c.dm.RHSValues(ru, t) {
			if v.Equal(t[b]) {
				validators[b] = append(validators[b], ru.PremiseSet())
			} else {
				lates = append(lates, lateConflict{attr: b, value: v, premise: ru.PremiseSet()})
			}
		}
	}

	// Step (g): a disagreeing pair is a genuine conflict iff its premise
	// can be validated without first validating the disputed attribute.
	// The reachable set depends only on the disputed attribute, so rules
	// disputing the same attribute share one computation.
	var reachCache map[int]relation.AttrSet
	for _, lc := range lates {
		reachable, ok := reachCache[lc.attr]
		if !ok {
			reachable = validatableWithout(base, validators, lc.attr)
			if reachCache == nil {
				reachCache = make(map[int]relation.AttrSet, 1)
			}
			reachCache[lc.attr] = reachable
		}
		if premiseWithin(lc.premise, base, reachable) {
			return failf("attribute %s has order-dependent values %v and %v",
				r.Attr(lc.attr).Name, t[lc.attr], lc.value)
		}
	}

	if coverage && cur.Len() != r.Arity() {
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
// within base ∪ (already-derivable attributes). Each (premise → attribute)
// validator is a pseudo-rule, so the least fixpoint is one counter-based
// closure pass (rule.CompileClosure) instead of the quadratic re-scan;
// validators touching `avoid` are dropped at compile time.
func validatableWithout(base relation.AttrSet, validators map[int][]relation.AttrSet, avoid int) relation.AttrSet {
	maxPos := avoid
	bump := func(p int) {
		if p > maxPos {
			maxPos = p
		}
	}
	base.Range(func(p int) bool { bump(p); return true })
	var prems []relation.AttrSet
	var rhs []int
	for a, list := range validators {
		if a == avoid {
			continue
		}
		for _, prem := range list {
			if prem.Has(avoid) {
				continue
			}
			bump(a)
			prem.Range(func(p int) bool { bump(p); return true })
			prems = append(prems, prem)
			rhs = append(rhs, a)
		}
	}
	prog := rule.CompileClosure(maxPos+1, prems, rhs)
	sc := rule.NewClosureScratch()
	prog.Closure(base, nil, sc)
	var ok relation.AttrSet
	for a := range validators {
		if a != avoid && sc.Has(a) && !base.Has(a) {
			ok.Add(a)
		}
	}
	return ok
}

// premiseWithin reports whether every attribute of the premise is in base
// or in the derivable set.
func premiseWithin(premise, base, derivable relation.AttrSet) bool {
	for _, a := range premise.Positions() {
		if !base.Has(a) && !derivable.Has(a) {
			return false
		}
	}
	return true
}
