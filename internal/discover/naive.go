package discover

// The naive row-scan miner — the PR 0 algorithm, kept verbatim in spirit
// as the reference oracle the property tests pin the postings engine
// against (the same pattern as the naive probe, closure, and region
// paths of PRs 2–5). Per candidate it rehashes every master tuple into
// string-keyed lhs groups; the postings engine must produce
// reflect.DeepEqual-identical output for every worker count.

import "repro/internal/relation"

// Dependencies mines the functional dependencies Xm → Bm holding in the
// master relation with the naive row-scan engine, minimal in the lhs:
// once X → B holds, no superset of X is reported for the same B. With
// MinConfidence below 1 it mines approximate dependencies, counting
// majority violations per lhs group. Production callers want Mine; this
// is the oracle.
func Dependencies(masterRel *relation.Relation, opts Options) []Candidate {
	opts = opts.withDefaults()
	n := masterRel.Len()
	arity := masterRel.Schema().Arity()
	if n == 0 {
		return nil
	}
	exact := opts.MinConfidence >= 1
	maxViol := maxViolations(n, opts)

	// Distinct-value counts per attribute, for probe-key pruning and for
	// skipping trivial rhs (constant columns are "determined" by
	// anything).
	distinct := make([]int, arity)
	for a := 0; a < arity; a++ {
		seen := map[relation.Value]bool{}
		for _, tm := range masterRel.All() {
			seen[tm[a]] = true
		}
		distinct[a] = len(seen)
	}

	var out []Candidate
	// covered[b] holds the minimal lhs sets already found for rhs b.
	covered := make([][]relation.AttrSet, arity)

	var lhsLists [][]int
	for width := 1; width <= opts.MaxLHS; width++ {
		lhsLists = lhsLists[:0]
		enumerateLists(arity, width, &lhsLists)
		for _, lhs := range lhsLists {
			if !probeWorthy(lhs, distinct, n, opts) {
				continue
			}
			for b := 0; b < arity; b++ {
				if contains(lhs, b) || distinct[b] <= 1 {
					continue
				}
				if subsumed(covered[b], lhs) {
					continue // a subset lhs already determines b
				}
				var support, viol int
				var ok bool
				if exact {
					support, ok = functional(masterRel, lhs, b)
				} else {
					support, viol = measureApprox(masterRel, lhs, b)
					ok = viol <= maxViol
				}
				if ok && support >= opts.MinSupport {
					out = append(out, Candidate{
						LHS: append([]int(nil), lhs...), RHS: b,
						Support: support, Violations: viol,
						Confidence: confidence(n, viol),
					})
					covered[b] = append(covered[b], relation.NewAttrSet(lhs...))
				}
			}
		}
	}
	sortCandidates(out)
	return out
}

// functional checks Xm → Bm exactly over the master tuples, returning the
// number of distinct lhs keys when it holds (early exit on the first
// contradiction — the exact path never pays for violation counting).
func functional(rel *relation.Relation, lhs []int, b int) (int, bool) {
	values := make(map[string]relation.Value, rel.Len())
	for _, tm := range rel.All() {
		key := tm.Key(lhs)
		if prev, ok := values[key]; ok {
			if !prev.Equal(tm[b]) {
				return 0, false
			}
			continue
		}
		values[key] = tm[b]
	}
	return len(values), true
}

// measureApprox measures Xm → Bm approximately: support is the number of
// distinct lhs keys, violations the g3-style count of tuples outside
// their group's rhs majority.
func measureApprox(rel *relation.Relation, lhs []int, b int) (support, viol int) {
	type group struct {
		size   int
		counts map[relation.Value]int
	}
	groups := map[string]*group{}
	for _, tm := range rel.All() {
		key := tm.Key(lhs)
		g := groups[key]
		if g == nil {
			g = &group{counts: map[relation.Value]int{}}
			groups[key] = g
		}
		g.size++
		g.counts[tm[b]]++
	}
	for _, g := range groups {
		maxc := 0
		for _, c := range g.counts {
			if c > maxc {
				maxc = c
			}
		}
		viol += g.size - maxc
	}
	return len(groups), viol
}
