package fix

import (
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
		b := ru.RHS()
		if zSet.Has(b) || !zSet.ContainsSet(ru.PremiseSet()) {
			continue
		}
		if vs, witness := dm.AppendRHSValues(out[b], ru, t); witness >= 0 {
			out[b] = vs
		}
	}
	return out
}
