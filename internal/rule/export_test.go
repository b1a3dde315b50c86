package rule

import "repro/internal/relation"

// CompileClosure builds a closure program from raw (premise → rhs) pairs,
// so that the tests can hold the engine to a naive fixpoint over arbitrary
// programs, not only compiled rule sets. Premise positions and rhs values
// must lie in [0, arity).
func CompileClosure(arity int, premises []relation.AttrSet, rhs []int) *Compiled {
	c := newCompiled(arity)
	for i, prem := range premises {
		c.addRule(prem, rhs[i])
	}
	return c
}
