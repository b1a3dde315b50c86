package fix

import (
	"repro/internal/master"
	"repro/internal/relation"
	"repro/internal/rule"
)

// NaiveFix computes the same result as TransFix by repeatedly scanning the
// whole rule set until a fixpoint, without the dependency graph. It exists
// as the ablation baseline for the dependency-graph design choice (§5.1);
// worst-case O(|R|·|Σ|·probe) instead of TransFix's one-pass ordering.
func NaiveFix(sigma *rule.Set, dm *master.Data, t relation.Tuple, zSet *relation.AttrSet) ([]int, error) {
	var fixed []int
	for {
		progressed := false
		for _, ru := range sigma.Rules() {
			if zSet.Has(ru.RHS()) || !zSet.ContainsSet(ru.PremiseSet()) || !ru.MatchesPattern(t) {
				continue
			}
			own := dm.RHSValues(ru, t)
			if len(own) == 0 {
				continue
			}
			values := certainValues(sigma, dm, t, *zSet, ru, own)
			if len(values) > 1 {
				return fixed, &ConflictError{Attr: ru.RHS(), Values: values}
			}
			t[ru.RHS()] = values[0]
			zSet.Add(ru.RHS())
			fixed = append(fixed, ru.RHS())
			progressed = true
		}
		if !progressed {
			return fixed, nil
		}
	}
}
