package cfd

import (
	"fmt"
	"slices"

	"repro/internal/master"
	"repro/internal/pattern"
	"repro/internal/relation"
	"repro/internal/rule"
)

// Set is an indexed collection of CFDs over one schema. CFDs are grouped
// by their lhs signature; within a group, members are hash-indexed on the
// positions that carry constants in every member, so violation detection
// per tuple costs one probe per group instead of a scan over all CFDs
// (master-instantiated sets hold |Σ|·|Dm| constant CFDs). Groups, and
// the members of a group's bucket, are walked in insertion order, so a
// tuple's violations come back in the same order on every run.
type Set struct {
	schema *relation.Schema
	cfds   []*CFD
	groups []*group
	bySig  map[signature]*group
}

// signature is what a group's members share: the lhs and the rhs.
type signature struct {
	lhs relation.AttrSet
	rhs int
}

type group struct {
	keyPos  []int            // positions constant in every member
	byKey   map[string][]int // value key -> cfd indexes
	scanIdx []int            // members when keyPos is empty
}

// NewSet builds an indexed set.
func NewSet(schema *relation.Schema, cfds ...*CFD) *Set {
	s := &Set{schema: schema, bySig: map[signature]*group{}}
	for _, c := range cfds {
		s.Add(c)
	}
	return s
}

// Add inserts a CFD, extending the group indexes.
func (s *Set) Add(c *CFD) {
	idx := len(s.cfds)
	s.cfds = append(s.cfds, c)
	sig := signature{relation.NewAttrSet(c.lhs...), c.rhs}
	g, ok := s.bySig[sig]
	if !ok {
		// Key positions: lhs attributes with a constant cell in this CFD;
		// refined to the intersection as members arrive.
		g = &group{keyPos: constPositions(c), byKey: map[string][]int{}}
		s.bySig[sig] = g
		s.groups = append(s.groups, g)
	} else {
		before := len(g.keyPos)
		g.restrictKeyPos(constPositions(c))
		if len(g.keyPos) != before {
			g.reindex(s.cfds) // key narrowed: rebuild member keys
		}
	}
	g.insert(s.cfds, idx)
}

func constPositions(c *CFD) []int {
	var out []int
	for i := 0; i < c.lhsPat.Len(); i++ {
		pos, cell := c.lhsPat.CellAt(i)
		if cell.Kind == pattern.Const {
			out = append(out, pos)
		}
	}
	return out
}

func (g *group) restrictKeyPos(ps []int) {
	has := relation.NewAttrSet(ps...)
	var keep []int
	for _, p := range g.keyPos {
		if has.Has(p) {
			keep = append(keep, p)
		}
	}
	g.keyPos = keep
}

func (g *group) reindex(all []*CFD) {
	old := g.byKey
	g.byKey = map[string][]int{}
	members := g.scanIdx
	for _, idxs := range old {
		members = append(members, idxs...)
	}
	slices.Sort(members) // insertion order
	g.scanIdx = nil
	for _, i := range members {
		g.insert(all, i)
	}
}

func (g *group) insert(all []*CFD, idx int) {
	if len(g.keyPos) == 0 {
		g.scanIdx = append(g.scanIdx, idx)
		return
	}
	c := all[idx]
	vals := make(relation.Tuple, len(g.keyPos))
	for i, p := range g.keyPos {
		cell, _ := c.lhsPat.CellFor(p)
		vals[i] = cell.Val
	}
	k := vals.Key(seq(len(g.keyPos)))
	g.byKey[k] = append(g.byKey[k], idx)
}

// Len returns the number of CFDs.
func (s *Set) Len() int { return len(s.cfds) }

// CFDs returns the backing slice (not a copy).
func (s *Set) CFDs() []*CFD { return s.cfds }

// Schema returns the schema.
func (s *Set) Schema() *relation.Schema { return s.schema }

// ViolationsOf returns the constant CFDs violated by a single tuple,
// using the group indexes.
func (s *Set) ViolationsOf(t relation.Tuple) []*CFD {
	var out []*CFD
	for _, g := range s.groups {
		candidates := g.scanIdx
		if len(g.keyPos) > 0 {
			candidates = g.byKey[t.Key(g.keyPos)]
		}
		for _, i := range candidates {
			if s.cfds[i].ViolatedBy(t) {
				out = append(out, s.cfds[i])
			}
		}
	}
	return out
}

// MatchingConstant returns the constant CFDs whose lhs pattern matches t
// (violated or not) — used by repairs to know the implied rhs values.
func (s *Set) MatchingConstant(t relation.Tuple) []*CFD {
	var out []*CFD
	for _, g := range s.groups {
		candidates := g.scanIdx
		if len(g.keyPos) > 0 {
			candidates = g.byKey[t.Key(g.keyPos)]
		}
		for _, i := range candidates {
			c := s.cfds[i]
			if c.IsConstant() && c.MatchesLHS(t) {
				out = append(out, c)
			}
		}
	}
	return out
}

// FromRules instantiates constant CFDs from editing rules and master
// data: for each rule ((X, Xm) → (B, Bm), tp[Xp]) and each master tuple
// tm compatible with the pattern on the λϕ-mapped attributes, emit
// (X ∪ Xp → B, tp' ‖ tm[Bm]) with tp'[X] = tm[Xm] and tp'[Xp \ X] the
// rule's own cells. This is the constraint view of the rule/master pair —
// what a constraint-based cleaner can see of the same knowledge.
func FromRules(sigma *rule.Set, dm *master.Data) (*Set, error) {
	if !sigma.MasterSchema().Equal(dm.Schema()) {
		return nil, fmt.Errorf("cfd: master schema mismatch")
	}
	r := sigma.Schema()
	out := NewSet(r)
	seen := map[string]bool{}
	for ri, ru := range sigma.Rules() {
		x, xm := ru.LHS(), ru.LHSM()
		tp := ru.Pattern()
		lhs := ru.PremiseSet().Positions()
		for id, tm := range dm.All() {
			ok := true
			for i := range x {
				if cell, has := tp.CellFor(x[i]); has && !cell.Matches(tm[xm[i]]) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			var pos []int
			var cells []pattern.Cell
			for i := range x {
				pos = append(pos, x[i])
				cells = append(cells, pattern.Eq(tm[xm[i]]))
			}
			for i := 0; i < tp.Len(); i++ {
				p, cell := tp.CellAt(i)
				if ru.LHSSet().Has(p) {
					continue // already pinned to the master value
				}
				pos = append(pos, p)
				cells = append(cells, cell)
			}
			lp, err := pattern.NewTuple(pos, cells)
			if err != nil {
				return nil, fmt.Errorf("cfd: rule %s master %d: %w", ru.Name(), id, err)
			}
			rhs := pattern.Eq(tm[ru.RHSM()])
			key := lp.Key() + "⇒" + itoa(ru.RHS()) + ":" + rhs.Val.Encode()
			if seen[key] {
				continue
			}
			seen[key] = true
			c, err := New(fmt.Sprintf("%s#%d", ru.Name(), id), r, lhs, ru.RHS(), lp, rhs)
			if err != nil {
				return nil, fmt.Errorf("cfd: rule %d: %w", ri, err)
			}
			out.Add(c)
		}
	}
	return out, nil
}

func itoa(n int) string { return fmt.Sprintf("%d", n) }

func seq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
