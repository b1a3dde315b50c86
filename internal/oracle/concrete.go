package oracle

import (
	"repro/internal/analysis"
	"repro/internal/master"
	"repro/internal/relation"
	"repro/internal/rule"
)

// ConcreteVerdict is the PTIME consistency/coverage check of Theorem 4 for
// one fully instantiated pattern row — Z positions zPos with the values
// vals — written the way it was first written: a fresh assignment map per
// closure round, every value read by a scan of Dm, premise sets copied out
// of every rule, validator sets in a map and the step-(g) reachability as a
// re-scanning fixpoint. Reference for analysis.Checker.ConcreteVerdict,
// which must return the same OK and, byte for byte, the same Detail.
//
// The canonical closure applies every applicable (rule, master) pair round
// by round (steps (c)–(f) of the proof) and fails at once when two pairs
// of one round assign one attribute different values (step (e); the
// lowest such attribute is named). Step (g) then looks at every pair that
// disagrees with an attribute the closure validated: it is a genuine
// inconsistency iff its premise can be validated without first validating
// that attribute.
func ConcreteVerdict(sigma *rule.Set, dm *master.Data, zPos []int, vals []relation.Value, coverage bool) analysis.Verdict {
	r := sigma.Schema()
	t := relation.NewTuple(r.Arity())
	base := relation.NewAttrSet(zPos...)
	for i, p := range zPos {
		t[p] = vals[i]
	}
	cur := base

	for {
		// The values each applicable rule would assign, per rhs attribute:
		// rule order, then smallest master id; an attribute only when some
		// pair applies.
		assignments := map[int][]relation.Value{}
		for _, ru := range sigma.Rules() {
			b := ru.RHS()
			if cur.Has(b) || !cur.ContainsSet(ru.PremiseSet()) {
				continue
			}
			if vs := rhsValues(assignments[b], dm, ru, t); len(vs) > 0 {
				assignments[b] = vs
			}
		}
		if len(assignments) == 0 {
			break
		}
		for b := range r.Arity() {
			if vs := assignments[b]; len(vs) > 1 {
				return fail("attribute %s gets conflicting values %v", r.Attr(b).Name, vs)
			}
		}
		for b, vs := range assignments {
			t[b] = vs[0]
			cur.Add(b)
		}
	}

	// Validator sets: for each derived attribute A, the premise sets of
	// every pair that assigns A its closure value — the alternative ways
	// any sequence can validate A.
	validators := map[int][]relation.AttrSet{}
	type lateConflict struct {
		attr    int
		value   relation.Value
		premise relation.AttrSet
	}
	var lates []lateConflict
	for _, ru := range sigma.Rules() {
		b := ru.RHS()
		if base.Has(b) || !cur.Has(b) {
			continue
		}
		if !cur.ContainsSet(ru.PremiseSet()) || !ru.MatchesPattern(t) {
			continue
		}
		for _, v := range rhsValues(nil, dm, ru, t) {
			if v.Equal(t[b]) {
				validators[b] = append(validators[b], ru.PremiseSet())
			} else {
				lates = append(lates, lateConflict{attr: b, value: v, premise: ru.PremiseSet()})
			}
		}
	}

	for _, lc := range lates {
		reachable := validatableWithout(base, validators, lc.attr)
		within := true
		for _, a := range lc.premise.Positions() {
			if !base.Has(a) && !reachable.Has(a) {
				within = false
			}
		}
		if within {
			return fail("attribute %s has order-dependent values %v and %v",
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
		return fail("attributes not covered: %v", missing)
	}
	return analysis.Verdict{OK: true}
}

// validatableWithout is the least set of attributes outside base that some
// derivation validates without ever validating avoid: an attribute joins
// when one of its validator premises lies within base and the set so far.
// It re-scans every validator until nothing joins.
func validatableWithout(base relation.AttrSet, validators map[int][]relation.AttrSet, avoid int) relation.AttrSet {
	var got relation.AttrSet
	for changed := true; changed; {
		changed = false
		for a, list := range validators {
			if a == avoid || base.Has(a) || got.Has(a) {
				continue
			}
			for _, prem := range list {
				if prem.Has(avoid) {
					continue
				}
				if base.Union(got).ContainsSet(prem) {
					got.Add(a)
					changed = true
					break
				}
			}
		}
	}
	return got
}
