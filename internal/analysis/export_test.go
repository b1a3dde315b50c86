package analysis

import (
	"repro/internal/master"
	"repro/internal/rule"
)

// NewCheckerCapped is NewChecker refusing any row that expands to more than
// cap instantiations, so a test can reach the limit on a small fixture.
func NewCheckerCapped(sigma *rule.Set, dm *master.Data, cap int) *Checker {
	c := NewChecker(sigma, sigma.Compile(), dm)
	c.cap = cap
	return c
}
