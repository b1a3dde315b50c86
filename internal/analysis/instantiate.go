package analysis

import (
	"fmt"
	"sync"

	"repro/internal/fix"
	"repro/internal/pattern"
	"repro/internal/relation"
)

// domains lazily computes the per-attribute active domain: the constants
// that can influence rule applicability on each R attribute. Following the
// Thm 1 proof, behaviours of all other constants are isomorphic to a
// single fresh constant per attribute, so instantiating wildcard/negated
// cells over activeDomain(A) ∪ {fresh(A)} is sound and complete.
type domains struct {
	once  sync.Once
	dom   map[int][]relation.Value
	fresh map[int]relation.Value
}

func (c *Checker) domainFor(p int) ([]relation.Value, relation.Value) {
	c.domains.once.Do(c.computeDomains)
	return c.domains.dom[p], c.domains.fresh[p]
}

func (c *Checker) computeDomains() {
	r := c.sigma.Schema()
	dom := make(map[int][]relation.Value, r.Arity())
	seen := make(map[int]map[relation.Value]bool, r.Arity())
	add := func(p int, v relation.Value) {
		if seen[p] == nil {
			seen[p] = map[relation.Value]bool{}
		}
		if !seen[p][v] {
			seen[p][v] = true
			dom[p] = append(dom[p], v)
		}
	}
	// Pattern constants per attribute.
	for p, vs := range c.sigma.ActiveDomain() {
		for _, v := range vs {
			add(p, v)
		}
	}
	// Master values at positions λϕ-paired with each attribute: these are
	// the only master constants the probe t[X] = tm[Xm] compares against.
	for _, ru := range c.sigma.Rules() {
		x, xm := ru.LHS(), ru.LHSM()
		for i := range x {
			for id := range c.dm.Len() {
				add(x[i], c.dm.Cell(id, xm[i]))
			}
		}
	}
	// Fresh constants: guaranteed outside the domain.
	fresh := make(map[int]relation.Value, r.Arity())
	for p := 0; p < r.Arity(); p++ {
		fresh[p] = freshValue(r.Attr(p).Type, seen[p])
	}
	c.domains.dom = dom
	c.domains.fresh = fresh
}

func freshValue(t relation.Type, taken map[relation.Value]bool) relation.Value {
	if t == relation.TypeInt {
		var max int64
		for v := range taken {
			if v.Kind() == relation.KindInt && v.Int64() > max {
				max = v.Int64()
			}
		}
		return relation.Int(max + 1_000_003)
	}
	v := relation.String("⊥fresh⊥")
	for taken[v] {
		v = relation.String(v.Str() + "~")
	}
	return v
}

// instantiateRow expands one tableau row into the concrete value vectors
// (aligned with reg.Z()) the concrete checker must examine. Concrete rows
// expand to themselves; wildcard and negated cells range over the active
// domain plus the fresh constant.
func (c *Checker) instantiateRow(reg *fix.Region, row pattern.Tuple) ([][]relation.Value, error) {
	zPos := reg.Z()
	choices := make([][]relation.Value, len(zPos))
	total := 1
	for i, p := range zPos {
		cell, _ := row.CellFor(p) // implicit wildcard when unmentioned
		switch cell.Kind {
		case pattern.Const:
			choices[i] = []relation.Value{cell.Val}
		case pattern.Wildcard:
			dom, fresh := c.domainFor(p)
			choices[i] = append(append([]relation.Value(nil), dom...), fresh)
		case pattern.NotConst:
			dom, fresh := c.domainFor(p)
			var keep []relation.Value
			for _, v := range dom {
				if !v.Equal(cell.Val) {
					keep = append(keep, v)
				}
			}
			choices[i] = append(keep, fresh)
		}
		total *= len(choices[i])
		if total > c.cap {
			return nil, fmt.Errorf("analysis: row expands to more than %d instantiations (attribute %s alone has %d choices); make the tableau concrete",
				c.cap, c.sigma.Schema().Attr(p).Name, len(choices[i]))
		}
	}
	out := make([][]relation.Value, 0, total)
	vec := make([]relation.Value, len(zPos))
	var walk func(i int)
	walk = func(i int) {
		if i == len(zPos) {
			out = append(out, append([]relation.Value(nil), vec...))
			return
		}
		for _, v := range choices[i] {
			vec[i] = v
			walk(i + 1)
		}
	}
	walk(0)
	return out, nil
}
