package fix

import (
	"slices"

	"repro/internal/master"
	"repro/internal/relation"
	"repro/internal/rule"
)

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
