package oracle

import (
	"fmt"
	"slices"

	"repro/internal/analysis"
	"repro/internal/fix"
	"repro/internal/master"
	"repro/internal/pattern"
	"repro/internal/relation"
	"repro/internal/rule"
)

// instantiationCap bounds how many instantiations one tableau row may
// expand into before an oracle refuses, as the checker of internal/analysis
// refuses past the same bound.
const instantiationCap = 200_000

// Consistent decides whether (Σ, Dm) is consistent relative to the region
// — every marked tuple has a unique fix — by exploring the whole fix
// space of every Thm 1 instantiation of every tableau row: the definition
// of §3 executed literally. Oracle for analysis.Checker.Consistent;
// exponential, for small inputs only.
func Consistent(sigma *rule.Set, dm *master.Data, reg *fix.Region) (analysis.Verdict, error) {
	return exploreRows(sigma, dm, reg, false)
}

// CertainRegion is Consistent with the coverage condition: every
// instantiation's unique fix covers all of R. Oracle for
// analysis.Checker.CertainRegion.
func CertainRegion(sigma *rule.Set, dm *master.Data, reg *fix.Region) (analysis.Verdict, error) {
	return exploreRows(sigma, dm, reg, true)
}

func exploreRows(sigma *rule.Set, dm *master.Data, reg *fix.Region, coverage bool) (analysis.Verdict, error) {
	r := sigma.Schema()
	zSet := reg.ZSet()
	return eachInstance(sigma, dm, reg, coverage, func(row int, vals []relation.Value, t relation.Tuple) (analysis.Verdict, error) {
		res := Explore(sigma, dm, t, zSet, 0)
		if res.Truncated {
			return analysis.Verdict{}, fmt.Errorf("oracle: state space exceeded cap")
		}
		if len(res.Outcomes) != 1 {
			return fail("row %d instantiation %v has %d distinct fixes", row, vals, len(res.Outcomes)), nil
		}
		if coverage && res.Outcomes[0].Covered.Len() != r.Arity() {
			return fail("row %d instantiation %v covers only %v", row, vals, res.Outcomes[0].Covered.Names(r)), nil
		}
		return analysis.Verdict{OK: true}, nil
	})
}

// DirectConsistent decides direct-fix consistency (Thm 5) by literal
// instantiation: for every instantiation of every tableau row and every
// attribute outside Z, the rules of ΣZ must agree on the assigned value.
// Oracle for analysis.Checker.DirectConsistent.
func DirectConsistent(sigma *rule.Set, dm *master.Data, reg *fix.Region) (analysis.Verdict, error) {
	return directRows(sigma, dm, reg, false)
}

// DirectCertainRegion adds the coverage condition: every attribute outside
// Z receives a value from at least one rule of ΣZ. Oracle for
// analysis.Checker.DirectCertainRegion.
func DirectCertainRegion(sigma *rule.Set, dm *master.Data, reg *fix.Region) (analysis.Verdict, error) {
	return directRows(sigma, dm, reg, true)
}

func directRows(sigma *rule.Set, dm *master.Data, reg *fix.Region, coverage bool) (analysis.Verdict, error) {
	rules, err := sigmaZ(sigma, reg.ZSet())
	if err != nil {
		return analysis.Verdict{}, err
	}
	r := sigma.Schema()
	zSet := reg.ZSet()
	return eachInstance(sigma, dm, reg, coverage, func(row int, vals []relation.Value, t relation.Tuple) (analysis.Verdict, error) {
		perAttr := map[int][]relation.Value{}
		for _, ru := range rules {
			perAttr[ru.RHS()] = rhsValues(perAttr[ru.RHS()], dm, ru, t)
		}
		for b, vs := range perAttr {
			if len(vs) > 1 {
				return fail("row %d instantiation %v: attribute %s gets %v", row, vals, r.Attr(b).Name, vs), nil
			}
		}
		for b := 0; coverage && b < r.Arity(); b++ {
			if !zSet.Has(b) && len(perAttr[b]) == 0 {
				return fail("row %d instantiation %v: attribute %s uncovered", row, vals, r.Attr(b).Name), nil
			}
		}
		return analysis.Verdict{OK: true}, nil
	})
}

// eachInstance runs check on every Thm 1 instantiation of every row of the
// region's tableau, as a tuple over R: the instantiated values on Z and
// the fresh constant elsewhere (attributes outside Z are never read, since
// premises are validated). It returns the first negative verdict or error.
// An empty tableau marks no tuple: consistent, but not a certain region.
func eachInstance(sigma *rule.Set, dm *master.Data, reg *fix.Region, coverage bool,
	check func(row int, vals []relation.Value, t relation.Tuple) (analysis.Verdict, error)) (analysis.Verdict, error) {
	tc := reg.Tableau()
	if coverage && tc.Len() == 0 {
		return fail("empty tableau marks no tuples"), nil
	}
	zPos := reg.Z()
	dom := newDomains(sigma, dm, tc)
	for i, row := range tc.Rows() {
		insts, err := dom.instantiate(zPos, row)
		if err != nil {
			return analysis.Verdict{}, err
		}
		for _, vals := range insts {
			t := slices.Clone(relation.Tuple(dom.fresh))
			for j, p := range zPos {
				t[p] = vals[j]
			}
			if v, err := check(i, vals, t); err != nil || !v.OK {
				return v, err
			}
		}
	}
	return analysis.Verdict{OK: true}, nil
}

// sigmaZ is ΣZ of the direct-fix semantics (§4): the rules that apply
// under the region without extending it, rhs outside Z and lhs inside.
// Thm 5 needs each to read only its lhs (Xp ⊆ X); a rule that does not is
// an error, as it is for the checker.
func sigmaZ(sigma *rule.Set, zSet relation.AttrSet) ([]*rule.Rule, error) {
	var out []*rule.Rule
	for _, ru := range sigma.Rules() {
		if zSet.Has(ru.RHS()) || !zSet.ContainsSet(ru.LHSSet()) {
			continue
		}
		if !ru.LHSSet().ContainsSet(ru.Pattern().AttrSet()) {
			return nil, fmt.Errorf("oracle: rule %s has pattern attributes outside X", ru.Name())
		}
		out = append(out, ru)
	}
	return out, nil
}

// domains is the instantiation domain of the Thm 1 proof, per attribute
// of R: the constants Σ's patterns mention there, every master value on a
// column some rule pairs with it through λϕ, and one fresh constant. Any
// other constant behaves like the fresh one, so instantiating a wildcard
// or negated cell over dom ∪ {fresh} covers every marked tuple. The fresh
// constant also avoids the constants of the tableau tc, so that a negated
// cell never excludes it.
type domains struct {
	dom   [][]relation.Value
	fresh []relation.Value
}

func newDomains(sigma *rule.Set, dm *master.Data, tc *pattern.Tableau) *domains {
	r := sigma.Schema()
	d := &domains{dom: make([][]relation.Value, r.Arity()), fresh: make([]relation.Value, r.Arity())}
	add := func(p int, v relation.Value) {
		if !slices.Contains(d.dom[p], v) {
			d.dom[p] = append(d.dom[p], v)
		}
	}
	for _, ru := range sigma.Rules() {
		tp := ru.Pattern()
		for _, p := range tp.Positions() {
			if cell, _ := tp.CellFor(p); cell.Kind != pattern.Wildcard {
				add(p, cell.Val)
			}
		}
		x, xm := ru.LHS(), ru.LHSM()
		for i := range x {
			for id := range dm.Len() {
				add(x[i], dm.Cell(id, xm[i]))
			}
		}
	}
	for p := range d.fresh {
		taken := slices.Clone(d.dom[p])
		for _, row := range tc.Rows() {
			if cell, has := row.CellFor(p); has {
				taken = append(taken, cell.Val)
			}
		}
		d.fresh[p] = freshValue(r.Attr(p).Type, taken)
	}
	return d
}

// freshValue returns a value of type typ outside taken.
func freshValue(typ relation.Type, taken []relation.Value) relation.Value {
	if typ == relation.TypeInt {
		v := relation.Int(0)
		for slices.Contains(taken, v) {
			v = relation.Int(v.Int64() + 1)
		}
		return v
	}
	v := relation.String("fresh")
	for slices.Contains(taken, v) {
		v = relation.String(v.Str() + "'")
	}
	return v
}

// instantiate expands one tableau row into the value vectors over zPos an
// oracle must examine: a constant cell is itself, a wildcard ranges over
// the domain plus the fresh constant, a negated cell over the same less
// its constant.
func (d *domains) instantiate(zPos []int, row pattern.Tuple) ([][]relation.Value, error) {
	insts := [][]relation.Value{nil}
	for _, p := range zPos {
		cell, _ := row.CellFor(p) // implicit wildcard when unmentioned
		choices := []relation.Value{cell.Val}
		if cell.Kind != pattern.Const {
			choices = nil
			for _, v := range append(slices.Clone(d.dom[p]), d.fresh[p]) {
				if cell.Matches(v) {
					choices = append(choices, v)
				}
			}
		}
		if len(insts)*len(choices) > instantiationCap {
			return nil, fmt.Errorf("oracle: row expands to more than %d instantiations", instantiationCap)
		}
		var next [][]relation.Value
		for _, vec := range insts {
			for _, v := range choices {
				next = append(next, append(slices.Clone(vec), v))
			}
		}
		insts = next
	}
	return insts, nil
}

// fail builds a negative verdict.
func fail(format string, args ...any) analysis.Verdict {
	return analysis.Verdict{Detail: fmt.Sprintf(format, args...)}
}
