// Package fix implements the dynamic semantics of the paper (§3) that the
// CertainFix framework runs: regions (Z, Tc), region extension
// ext(Z, Tc, ϕ), the assignments applicable rules make, and procedure
// TransFix of §5.1 (Fig. 5) — the deterministic O(|Σ|²) fixing procedure,
// valid once consistency has been established. The exhaustive enumeration
// of fix sequences, unique and certain fixes that TransFix is tested
// against lives in internal/oracle.
package fix

import (
	"fmt"

	"repro/internal/pattern"
	"repro/internal/relation"
)

// Region is a pair (Z, Tc): a list Z of distinct attribute positions of R
// and a pattern tableau Tc over Z. A tuple t is "marked" by the region if
// it matches some pattern tuple of Tc; fixing t is justified only when
// t[Z] is assured correct (validated) and t is marked (§3).
type Region struct {
	z    []int
	zSet relation.AttrSet
	tc   *pattern.Tableau
}

// NewRegion builds a region. Positions must be distinct; every pattern row
// must constrain only attributes inside Z.
func NewRegion(z []int, tc *pattern.Tableau) (*Region, error) {
	zSet := relation.NewAttrSet(z...)
	if zSet.Len() != len(z) {
		return nil, fmt.Errorf("fix: region Z has duplicate attributes: %v", z)
	}
	if tc == nil {
		tc = pattern.NewTableau()
	}
	for _, row := range tc.Rows() {
		for _, p := range row.Positions() {
			if !zSet.Has(p) {
				return nil, fmt.Errorf("fix: region tableau constrains attribute %d outside Z %v", p, z)
			}
		}
	}
	return &Region{z: append([]int(nil), z...), zSet: zSet, tc: tc}, nil
}

// MustRegion is NewRegion that panics on error; for fixtures.
func MustRegion(z []int, tc *pattern.Tableau) *Region {
	r, err := NewRegion(z, tc)
	if err != nil {
		panic(err)
	}
	return r
}

// Z returns the region's attribute list (copy).
func (r *Region) Z() []int { return append([]int(nil), r.z...) }

// ZSet returns the region's attribute set.
func (r *Region) ZSet() relation.AttrSet { return r.zSet }

// Tableau returns the region's pattern tableau.
func (r *Region) Tableau() *pattern.Tableau { return r.tc }

// Marks reports whether t matches some pattern tuple of Tc.
func (r *Region) Marks(t relation.Tuple) bool { return r.tc.Marks(t) }

// Extend implements ext(Z, Tc, ϕ) (§3): after applying a rule with rhs B,
// t[B] is validated as a logical consequence, so B joins Z and every
// pattern row is (implicitly) widened with a wildcard on B. Extending by
// an attribute already in Z returns the region unchanged.
func (r *Region) Extend(b int) *Region {
	if r.zSet.Has(b) {
		return r
	}
	nz := append(append([]int(nil), r.z...), b)
	ns := r.zSet
	ns.Add(b)
	// Wildcards are implicit in pattern.Tuple (unmentioned attributes are
	// unconstrained), so the tableau itself is reused.
	return &Region{z: nz, zSet: ns, tc: r.tc}
}
