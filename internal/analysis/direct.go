package analysis

import (
	"fmt"

	"repro/internal/fix"
	"repro/internal/master"
	"repro/internal/pattern"
	"repro/internal/relation"
	"repro/internal/rule"
)

// Direct-fix checking (Theorem 5). Under the direct-fix semantics of §4,
// (a) every participating rule has Xp ⊆ X and (b) each fixing step uses
// the original region (Z, Tc) without extension. Consistency then reduces
// to the emptiness of the join queries Qϕ1,ϕ2 of the Thm 5 proof, and both
// problems are PTIME: O(|Σ|²·|Dm|²) worst case, implemented here with a
// hash join on the shared lhs attributes.

// directRules returns ΣZ: the rules applicable under the region without
// extension. It errors when such a rule violates Xp ⊆ X, since the
// SQL-style rewrite pushes pattern conditions onto master attributes
// through the (X, Xm) correspondence.
func directRules(sigma *rule.Set, reg *fix.Region) ([]*rule.Rule, error) {
	zSet := reg.ZSet()
	var out []*rule.Rule
	for _, ru := range sigma.Rules() {
		if zSet.Has(ru.RHS()) || !zSet.ContainsSet(ru.LHSSet()) {
			continue
		}
		if !ru.IsDirect() {
			return nil, fmt.Errorf("analysis: rule %s has pattern attributes outside X; the direct-fix checker requires Xp ⊆ X", ru.Name())
		}
		out = append(out, ru)
	}
	return out, nil
}

// qPhi evaluates Qϕ for one rule and one tableau row: the master tuple ids
// whose λϕ-mapped attributes satisfy both the rule's pattern and the row's
// cells. Scanning Dm once per rule, as in the proof.
func qPhi(dm *master.Data, ru *rule.Rule, row pattern.Tuple) []int {
	x, xm := ru.LHS(), ru.LHSM()
	tp := ru.Pattern()
	var out []int
	for id := range dm.Len() {
		ok := true
		for i := range x {
			v := dm.Cell(id, xm[i])
			if cell, has := tp.CellFor(x[i]); has && !cell.Matches(v) {
				ok = false
				break
			}
			if cell, has := row.CellFor(x[i]); has && !cell.Matches(v) {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, id)
		}
	}
	return out
}

// DirectConsistent decides the consistency problem under direct-fix
// semantics (Thm 5(I)): for every pair of rules sharing a rhs attribute,
// no two qualifying master tuples agree on the shared lhs attributes while
// assigning different rhs values.
func (c *Checker) DirectConsistent(reg *fix.Region) (Verdict, error) {
	rules, err := directRules(c.sigma, reg)
	if err != nil {
		return Verdict{}, err
	}
	for ri := 0; ri < reg.Tableau().Len(); ri++ {
		row := reg.Tableau().Row(ri)
		qs := make([][]int, len(rules))
		for i, ru := range rules {
			qs[i] = qPhi(c.dm, ru, row)
		}
		for i, r1 := range rules {
			for j := i; j < len(rules); j++ {
				r2 := rules[j]
				if r1.RHS() != r2.RHS() {
					continue
				}
				if v := c.directJoinConflict(r1, qs[i], r2, qs[j], ri); !v.OK {
					return v, nil
				}
			}
		}
	}
	return okVerdict, nil
}

// directJoinConflict implements Qϕ1,ϕ2: join the qualifying master tuples
// of the two rules on the shared input attributes X = X1 ∩ X2 and flag
// pairs that disagree on the assigned value.
func (c *Checker) directJoinConflict(r1 *rule.Rule, q1 []int, r2 *rule.Rule, q2 []int, rowIdx int) Verdict {
	shared := sharedLHS(r1, r2)
	m1, m2 := make([]int, len(shared)), make([]int, len(shared))
	for i, p := range shared {
		m1[i], _ = r1.MasterPosFor(p)
		m2[i], _ = r2.MasterPosFor(p)
	}
	// Hash the first side on shared-key -> set of assigned values.
	byKey := map[string][]relation.Value{}
	for _, id := range q1 {
		tm := c.dm.Tuple(id)
		k := tm.Key(m1)
		byKey[k] = appendDistinct(byKey[k], tm[r1.RHSM()])
	}
	for _, id := range q2 {
		tm := c.dm.Tuple(id)
		k := tm.Key(m2)
		v := tm[r2.RHSM()]
		for _, w := range byKey[k] {
			if !w.Equal(v) {
				return failf("row %d: rules %s and %s assign %v and %v to attribute %s",
					rowIdx, r1.Name(), r2.Name(), w, v, c.sigma.Schema().Attr(r1.RHS()).Name)
			}
		}
	}
	return okVerdict
}

// DirectCertainRegion decides the coverage problem under direct-fix
// semantics (Thm 5(II)): consistency plus, for every attribute B outside
// Z, a rule with rhs B whose lhs is pinned to constants by the row, whose
// pattern accepts those constants, and which finds a master match.
func (c *Checker) DirectCertainRegion(reg *fix.Region) (Verdict, error) {
	v, err := c.DirectConsistent(reg)
	if err != nil || !v.OK {
		return v, err
	}
	rules, _ := directRules(c.sigma, reg)
	r := c.sigma.Schema()
	zSet := reg.ZSet()
	if reg.Tableau().Len() == 0 {
		return failf("empty tableau marks no tuples"), nil
	}
	for ri := 0; ri < reg.Tableau().Len(); ri++ {
		row := reg.Tableau().Row(ri)
		for b := 0; b < r.Arity(); b++ {
			if zSet.Has(b) {
				continue
			}
			if !c.directlyCoverable(rules, row, b) {
				return failf("row %d: attribute %s is not directly coverable", ri, r.Attr(b).Name), nil
			}
		}
	}
	return okVerdict, nil
}

// directlyCoverable reports whether some rule with rhs b covers it on row.
// t carries the row's constants at each candidate rule's lhs, which is all
// MatchIDs reads of it.
func (c *Checker) directlyCoverable(rules []*rule.Rule, row pattern.Tuple, b int) bool {
	t := relation.NewTuple(c.sigma.Schema().Arity())
	for _, ru := range rules {
		if ru.RHS() != b {
			continue
		}
		// (b) the row pins every lhs attribute to a constant,
		// (c) the pattern accepts those constants,
		ok := true
		for _, p := range ru.LHS() {
			cell, has := row.CellFor(p)
			if !has || cell.Kind != pattern.Const {
				ok = false
				break
			}
			t[p] = cell.Val
			if pc, hasPat := ru.Pattern().CellFor(p); hasPat && !pc.Matches(cell.Val) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		// (d) a master tuple matches tm[Xm] = tc[X].
		if len(c.dm.MatchIDs(ru, t)) > 0 {
			return true
		}
	}
	return false
}

func sharedLHS(r1, r2 *rule.Rule) []int {
	s2 := r2.LHSSet()
	var out []int
	for _, p := range r1.LHS() {
		if s2.Has(p) {
			out = append(out, p)
		}
	}
	return out
}

func appendDistinct(vs []relation.Value, v relation.Value) []relation.Value {
	for _, w := range vs {
		if w.Equal(v) {
			return vs
		}
	}
	return append(vs, v)
}
