package fix

import (
	"slices"

	"repro/internal/master"
	"repro/internal/relation"
	"repro/internal/rule"
)

// Pair is an applicable (rule, master-tuple) pair.
type Pair struct {
	Rule     *rule.Rule
	MasterID int
}

// RegionApplies reports whether (ϕ, tm) apply to t with respect to a
// validated attribute set zSet (§3): the rule's premise X ∪ Xp must be
// validated, its rhs B must not be (validated attributes are protected),
// t must match the rule's pattern and t[X] = tm[Xm].
func RegionApplies(ru *rule.Rule, tm relation.Tuple, t relation.Tuple, zSet relation.AttrSet) bool {
	if zSet.Has(ru.RHS()) {
		return false
	}
	if !zSet.ContainsSet(ru.PremiseSet()) {
		return false
	}
	return ru.Applies(t, tm)
}

// ApplyStep performs one region-relative application t →((Z,·),ϕ,tm) t' in
// place: t[B] := tm[Bm] and B joins the validated set. It reports whether
// the application was admissible; t and zSet are unchanged otherwise.
func ApplyStep(ru *rule.Rule, tm relation.Tuple, t relation.Tuple, zSet *relation.AttrSet) bool {
	if !RegionApplies(ru, tm, t, *zSet) {
		return false
	}
	t[ru.RHS()] = tm[ru.RHSM()]
	zSet.Add(ru.RHS())
	return true
}

// ApplicablePairs enumerates every (ϕ, tm) pair that applies to t with
// respect to zSet, using the master indexes for the t[X] = tm[Xm] probe.
func ApplicablePairs(sigma *rule.Set, dm *master.Data, t relation.Tuple, zSet relation.AttrSet) []Pair {
	var out []Pair
	for _, ru := range sigma.Rules() {
		if zSet.Has(ru.RHS()) || !zSet.ContainsSet(ru.PremiseSet()) {
			continue
		}
		if !ru.MatchesPattern(t) {
			continue
		}
		for _, id := range dm.MatchIDs(ru, t) {
			out = append(out, Pair{Rule: ru, MasterID: id})
		}
	}
	return out
}

// ApplicableAssignments collects, per rhs attribute, the distinct values
// the pairs applicable to t would assign (rule order, then smallest master
// id) — one value probe per applicable rule, no pair enumeration. Two
// distinct values for one attribute is the step-(e) conflict of the
// Theorem-4 checking algorithm.
func ApplicableAssignments(sigma *rule.Set, dm *master.Data, t relation.Tuple, zSet relation.AttrSet) map[int][]relation.Value {
	out := map[int][]relation.Value{}
	for _, ru := range sigma.Rules() {
		if zSet.Has(ru.RHS()) || !zSet.ContainsSet(ru.PremiseSet()) {
			continue
		}
		if vs := dm.RHSValues(ru, t); len(vs) > 0 {
			if cur, ok := out[ru.RHS()]; ok {
				vs = appendDistinct(cur, vs)
			}
			out[ru.RHS()] = vs
		}
	}
	return out
}

// appendDistinct appends the values of vs not already in values.
func appendDistinct(values, vs []relation.Value) []relation.Value {
	for _, v := range vs {
		if !slices.Contains(values, v) {
			values = append(values, v)
		}
	}
	return values
}
