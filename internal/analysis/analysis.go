// Package analysis implements the static analyses of §4 of the paper for
// editing rules, master data and regions:
//
//   - the consistency problem — does every tuple marked by (Z, Tc) have a
//     unique fix by (Σ, Dm)? (coNP-complete in general, Thm 1)
//   - the coverage problem — is (Z, Tc) a certain region? (Thm 2)
//   - the PTIME special cases: concrete tableaus (Thm 4) and direct fixes
//     (Thm 5)
//   - the Z-validating, Z-counting and Z-minimum problems (Thms 6, 9, 12),
//     solved exactly by bounded search (they are NP-/#P-complete, so the
//     exact solvers are exponential and intended for moderate inputs; the
//     production heuristics live in package suggest)
//
// General (non-concrete) tableaus are decided by instantiating wildcard
// and negated cells over the per-attribute active domain plus one fresh
// constant — the technique used in the Thm 1/Thm 6 proofs — and running
// the concrete checker on every instantiation.
package analysis

import (
	"fmt"

	"repro/internal/fix"
	"repro/internal/master"
	"repro/internal/rule"
)

// instantiationCap bounds how many concrete instantiations a single
// pattern row may expand into before the checker refuses (the general
// problem is coNP-complete; unbounded expansion is exponential).
const instantiationCap = 200_000

// Verdict is the result of a consistency or coverage check.
type Verdict struct {
	OK bool
	// Detail explains a negative verdict: the conflicting attribute and
	// values for consistency, the uncovered attributes for coverage.
	Detail string
}

// ok is the positive verdict.
var okVerdict = Verdict{OK: true}

// Checker bundles (Σ, Dm) and Σ's compiled closure program; its methods
// answer the §4 problems for regions over Σ's input schema.
//
// A Checker is safe for concurrent use. It reads Σ in place: the rules,
// and each rule's premise set X ∪ Xp through Rule.PremiseSet. The
// concrete check of Theorem 4 keeps its per-call state (the
// tuple under closure, the per-round assignments, the validator mask and
// the closure scratch of its step-(g) reachability) in scratch drawn from a
// package-level pool, one scratch per call in flight, so concurrent checks
// share nothing mutable. A warm check allocates nothing unless it builds a
// negative verdict's Detail, which ConcreteOK never does.
type Checker struct {
	sigma   *rule.Set
	prog    *rule.Compiled
	dm      *master.Data
	cap     int // instantiationCap; lowered only by tests (export_test.go)
	domains domains
}

// NewChecker builds a checker for (Σ, Dm). prog must be Σ's program,
// sigma.Compile(): a Deriver compiles it once and shares it with every
// checker it builds.
func NewChecker(sigma *rule.Set, prog *rule.Compiled, dm *master.Data) *Checker {
	return &Checker{sigma: sigma, prog: prog, dm: dm, cap: instantiationCap}
}

// Sigma returns Σ.
func (c *Checker) Sigma() *rule.Set { return c.sigma }

// Master returns Dm.
func (c *Checker) Master() *master.Data { return c.dm }

// Consistent decides whether (Σ, Dm) is consistent relative to (Z, Tc):
// every marked tuple has a unique fix (§4.1). Concrete rows use the PTIME
// algorithm of Thm 4; rows with wildcards or negations are instantiated
// over the active domain.
func (c *Checker) Consistent(reg *fix.Region) (Verdict, error) {
	return c.checkRows(reg, false)
}

// CertainRegion decides whether (Z, Tc) is a certain region for (Σ, Dm):
// every marked tuple has a certain fix (§4.1, the coverage problem).
func (c *Checker) CertainRegion(reg *fix.Region) (Verdict, error) {
	return c.checkRows(reg, true)
}

// checkRows tests each tableau row independently (Thm 4 reduces multi-row
// tableaus to the single-row case).
func (c *Checker) checkRows(reg *fix.Region, coverage bool) (Verdict, error) {
	tc := reg.Tableau()
	if coverage && tc.Len() == 0 {
		// An empty tableau marks no tuples; vacuously consistent but it is
		// not a useful certain region. Treat as not covering.
		return failf("empty tableau marks no tuples"), nil
	}
	for i := 0; i < tc.Len(); i++ {
		rows, err := c.instantiateRow(reg, tc.Row(i))
		if err != nil {
			return Verdict{}, err
		}
		for _, inst := range rows {
			v := c.checkConcrete(reg.Z(), inst, coverage, true)
			if !v.OK {
				v.Detail = fmt.Sprintf("row %d: %s", i, v.Detail)
				return v, nil
			}
		}
	}
	return okVerdict, nil
}
