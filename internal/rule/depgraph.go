package rule

import (
	"fmt"
	"strings"
)

// DepGraph is the dependency graph G(V, E) of a rule set (§5.1): one node
// per rule; an edge (u, v) when Bu ∈ (Xv ∪ Xpv), i.e. applying ϕu may
// enable ϕv. TransFix walks this graph to order rule applications; it is
// computed once per Σ and reused for every input tuple, so it is
// immutable once built: the edge lists Successors returns are the
// graph's own, shared by every goroutine, and must not be modified.
type DepGraph struct {
	set *Set
	out [][]int // adjacency: out[u] = nodes v with edge (u, v)
}

// NewDepGraph computes the dependency graph of Σ.
func NewDepGraph(s *Set) *DepGraph {
	n := s.Len()
	g := &DepGraph{set: s, out: make([][]int, n)}
	for u := 0; u < n; u++ {
		bu := s.Rule(u).RHS()
		for v := 0; v < n; v++ {
			if u == v {
				continue
			}
			if s.Rule(v).PremiseSet().Has(bu) {
				g.out[u] = append(g.out[u], v)
			}
		}
	}
	return g
}

// Set returns the rule set the graph was built from.
func (g *DepGraph) Set() *Set { return g.set }

// Successors returns the nodes enabled by applying rule u, in ascending
// order; the slice is shared and read-only.
func (g *DepGraph) Successors(u int) []int { return g.out[u] }

// String renders the graph as "u -> v" lines using rule names.
func (g *DepGraph) String() string {
	var b strings.Builder
	for u, succ := range g.out {
		for _, v := range succ {
			fmt.Fprintf(&b, "%s -> %s\n", g.set.Rule(u).Name(), g.set.Rule(v).Name())
		}
	}
	return b.String()
}
