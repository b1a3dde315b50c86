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
// borrowed. The oracles take (Σ, Dm) and return plain values, rule sets
// and analysis verdicts, never a suggest type: suggest's white-box tests
// import this package.
package oracle

import (
	"repro/internal/master"
	"repro/internal/relation"
	"repro/internal/rule"
)

// rhsValues is the master's value probe into a fresh list: the distinct
// values tm[Bm] over the master tuples applicable with ru to t, ordered by
// the smallest id carrying each.
func rhsValues(dm *master.Data, ru *rule.Rule, t relation.Tuple) []relation.Value {
	vs, _ := dm.AppendRHSValues(nil, ru, t)
	return vs
}
