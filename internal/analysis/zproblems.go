package analysis

import (
	"fmt"

	"repro/internal/fix"
	"repro/internal/pattern"
	"repro/internal/relation"
)

// The Z-problems of §4.2, solved exactly. Z-validating is NP-complete
// (Thm 6), Z-counting #P-complete (Thm 9) and Z-minimum NP-complete and
// inapproximable within c·log n (Thms 12, 17), so these exact solvers
// enumerate candidate pattern tuples / attribute subsets and are meant for
// moderate instances (tests, the complexity-reduction fixtures, small rule
// sets). Production region discovery uses the heuristics in package
// suggest, as the paper prescribes after Thm 17.

// candidateCells returns the cell choices for attribute p when searching
// for certain-region pattern tuples, following the normalization before
// Thm 6: attributes not occurring in Σ carry the wildcard; others range
// over the active domain plus one fresh constant (the variable v of the
// paper). Restricting to constant cells mirrors the Thm 6 proof, which
// guesses concrete tuples.
func (c *Checker) candidateCells(p int) []pattern.Cell {
	if !c.sigma.Attrs().Has(p) {
		return []pattern.Cell{pattern.Any}
	}
	dom, fresh := c.domainFor(p)
	cells := make([]pattern.Cell, 0, len(dom)+1)
	for _, v := range dom {
		cells = append(cells, pattern.Eq(v))
	}
	return append(cells, pattern.Eq(fresh))
}

// ZEnumerate enumerates every normalized concrete pattern tuple tc over Z
// such that (Z, {tc}) is a certain region for (Σ, Dm), up to `limit`
// results (limit ≤ 0 means unlimited). This is the common engine behind
// Z-validating and Z-counting.
func (c *Checker) ZEnumerate(z []int, limit int) ([]pattern.Tuple, error) {
	zSet := relation.NewAttrSet(z...)
	if zSet.Len() != len(z) {
		return nil, fmt.Errorf("analysis: Z has duplicate attributes: %v", z)
	}
	// Attributes that no rule can fix must be in Z, otherwise no tableau
	// can make (Z, Tc) certain; prune early.
	free := c.sigma.FreeAttrs()
	for _, p := range free.Positions() {
		if !zSet.Has(p) {
			return nil, nil
		}
	}
	choices := make([][]pattern.Cell, len(z))
	total := 1
	for i, p := range z {
		choices[i] = c.candidateCells(p)
		total *= len(choices[i])
		if total > c.cap {
			return nil, fmt.Errorf("analysis: Z-enumeration exceeds %d candidates; reduce Z or the active domain", c.cap)
		}
	}
	var out []pattern.Tuple
	cells := make([]pattern.Cell, len(z))
	var walk func(i int) error
	walk = func(i int) error {
		if limit > 0 && len(out) >= limit {
			return nil
		}
		if i == len(z) {
			row := pattern.MustTuple(z, cells)
			reg, err := fix.NewRegion(z, pattern.NewTableau(row))
			if err != nil {
				return err
			}
			v, err := c.CertainRegion(reg)
			if err != nil {
				return err
			}
			if v.OK {
				out = append(out, row)
			}
			return nil
		}
		for _, cell := range choices[i] {
			cells[i] = cell
			if err := walk(i + 1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(0); err != nil {
		return nil, err
	}
	return out, nil
}

// ZValidating decides whether some non-empty tableau Tc makes (Z, Tc) a
// certain region for (Σ, Dm) — the Z-validating problem (Thm 6).
func (c *Checker) ZValidating(z []int) (bool, error) {
	rows, err := c.ZEnumerate(z, 1)
	if err != nil {
		return false, err
	}
	return len(rows) > 0, nil
}

// ZCounting counts the distinct normalized pattern tuples tc for which
// (Z, {tc}) is a certain region — the Z-counting problem (Thm 9). Fresh
// constants play the role of the paper's variable v, so all constants
// outside Σ and Dm are counted once.
func (c *Checker) ZCounting(z []int) (int, error) {
	rows, err := c.ZEnumerate(z, 0)
	if err != nil {
		return 0, err
	}
	return len(rows), nil
}

// ZMinimum decides whether a list Z with |Z| ≤ k admits a non-empty
// certain-region tableau — the Z-minimum problem (Thm 12). It returns a
// witness Z when one exists. Attributes never fixed by Σ are forced into
// Z; the search then enumerates subsets of rhs(Σ) by increasing size.
func (c *Checker) ZMinimum(k int) ([]int, bool, error) {
	free := c.sigma.FreeAttrs().Positions()
	if len(free) > k {
		return nil, false, nil
	}
	budget := k - len(free)
	candidates := c.sigma.RHS().Positions()
	for size := 0; size <= budget && size <= len(candidates); size++ {
		var found []int
		var err error
		forEachSubset(candidates, size, func(subset []int) bool {
			z := append(append([]int(nil), free...), subset...)
			ok, e := c.ZValidating(z)
			if e != nil {
				err = e
				return false
			}
			if ok {
				found = z
				return false
			}
			return true
		})
		if err != nil {
			return nil, false, err
		}
		if found != nil {
			return found, true, nil
		}
	}
	return nil, false, nil
}

// forEachSubset calls fn on every size-k subset of items until fn returns
// false.
func forEachSubset(items []int, k int, fn func([]int) bool) {
	subset := make([]int, k)
	var walk func(start, depth int) bool
	walk = func(start, depth int) bool {
		if depth == k {
			return fn(subset)
		}
		for i := start; i <= len(items)-(k-depth); i++ {
			subset[depth] = items[i]
			if !walk(i+1, depth+1) {
				return false
			}
		}
		return true
	}
	walk(0, 0)
}
