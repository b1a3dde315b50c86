// Package discover mines editing rules from master data — the problem §7
// of the paper leaves open ("effective algorithms have to be in place for
// discovering editing rules from sample inputs and master data").
//
// The miner searches the master relation for (possibly approximate)
// functional relationships: an attribute list Xm determines Bm in Dm when
// tuples agreeing on Xm (almost) always agree on Bm. Every dependency
// with enough support yields the editing rule ((X, Xm) → (B, Bm), ())
// over an input schema aligned with the master schema — the shape the
// paper's HOSP and DBLP rule sets take. Like CFD discovery the lattice
// search is exponential in the lhs width, so lhs lists are enumerated up
// to a configured width and pruned by support, by probe-worthiness, and
// by the usual minimality/augmentation rules.
//
// Two engines implement the same search:
//
//   - Dependencies is the naive row-scan oracle from PR 0: per candidate
//     it rehashes every master tuple into string-keyed groups. It is kept,
//     like the naive probe and closure paths of PRs 2–5, as the reference
//     the property tests compare against.
//   - Mine / DependenciesMaster run on the interned id rows of
//     internal/master: each column is read once as dense
//     interned-value ids (Data.ColumnIDs), lhs support is counted by
//     TANE-style stripped-partition refinement over those ids, and the
//     candidate lattice fans out per level on internal/parallel. Output
//     is deterministic — byte-identical for every worker and shard
//     count — because partitions are ordered by first occurrence in
//     tuple order, never by interning order.
//
// Mining tolerates dirty masters: with MinConfidence below 1 a dependency
// is kept when at most a (1 − MinConfidence) fraction of tuples violate
// it, and the mined rule carries the measured confidence as a weight
// (rule.Rule.Confidence) that Suggest uses to rank competing suggestions.
// Loop closes the circle — mine weighted dependencies, majority-repair
// the cells that violate them, re-mine on the cleaned master — so a
// deployment with no hand-written Σ can bootstrap one from its own data
// (the discover→fix→re-discover loop surfaced as certainfix.Discover and
// `rulemine -loop`).
package discover

import (
	"fmt"
	"sort"

	"repro/internal/pattern"
	"repro/internal/relation"
	"repro/internal/rule"
)

// Options tunes the miner.
type Options struct {
	// MaxLHS bounds the lhs width (default 2; 3+ grows combinatorially).
	MaxLHS int
	// MinSupport is the minimum number of distinct lhs keys required for
	// a dependency to count as evidence rather than coincidence
	// (default 8).
	MinSupport int
	// MinDistinctRatio rejects trivial lhs candidates: the lhs must take
	// at least this fraction of distinct values over the master tuples
	// (default 0.05). Near-constant attributes (e.g. type =
	// "inproceedings") make poor probe keys on their own.
	MinDistinctRatio float64
	// MinConfidence is the weighted-mining knob: a dependency is kept
	// when its confidence 1 − violations/|Dm| reaches this threshold,
	// where violations counts the tuples that would have to change for
	// the dependency to hold exactly. The default (and any value ≤ 0)
	// is 1: exact mining, zero violations tolerated — the original
	// behavior. Values below 1 mine from dirty masters and stamp each
	// rule with its measured confidence (rule.Rule.Confidence).
	MinConfidence float64
	// Workers bounds the goroutines the postings miner fans each lattice
	// level out on (≤ 0 selects GOMAXPROCS). Output is identical for
	// every worker count. The naive oracle ignores it.
	Workers int
}

func (o Options) withDefaults() Options {
	if o.MaxLHS <= 0 {
		o.MaxLHS = 2
	}
	if o.MinSupport <= 0 {
		o.MinSupport = 8
	}
	if o.MinDistinctRatio == 0 {
		o.MinDistinctRatio = 0.05
	}
	if o.MinConfidence <= 0 || o.MinConfidence > 1 {
		o.MinConfidence = 1
	}
	return o
}

// Candidate is a mined dependency with its evidence.
type Candidate struct {
	LHS     []int // master attribute positions Xm
	RHS     int   // master attribute position Bm
	Support int   // distinct lhs keys witnessed
	// Violations counts the master tuples that disagree with their lhs
	// group's majority rhs value — the cells that would have to change
	// for the dependency to hold exactly. 0 for exact dependencies.
	Violations int
	// Confidence is 1 − Violations/|Dm|, the weight mined rules carry.
	Confidence float64
}

// confEps absorbs float rounding at the acceptance boundary so that e.g.
// MinConfidence 0.9 keeps a dependency whose confidence is exactly 0.9.
const confEps = 1e-9

func confidence(n, viol int) float64 { return 1 - float64(viol)/float64(n) }

// maxViolations is the largest violation count acceptable under opts:
// viol ≤ maxViolations(n, opts) iff confidence(n, viol) + confEps ≥
// MinConfidence. Both miners share this single acceptance formula.
func maxViolations(n int, opts Options) int {
	return int(float64(n)*(1-opts.MinConfidence) + float64(n)*confEps)
}

// Rules mines editing rules over (r, rm) from the master relation using
// the postings engine. The input schema r must align positionally with rm
// (the §6 datasets use the same attribute list for R and Rm; rules map
// position i to position i). Rules are named "m<N>" in discovery order
// and carry their mined confidence as a weight when it is below 1.
func Rules(r *relation.Schema, masterRel *relation.Relation, opts Options) (*rule.Set, []Candidate, error) {
	rm := masterRel.Schema()
	if r.Arity() != rm.Arity() {
		return nil, nil, fmt.Errorf("discover: input schema %s and master schema %s must align positionally", r, rm)
	}
	cands := Mine(masterRel, opts)
	set, err := rulesFromCandidates(r, rm, cands)
	if err != nil {
		return nil, nil, err
	}
	return set, cands, nil
}

func rulesFromCandidates(r, rm *relation.Schema, cands []Candidate) (*rule.Set, error) {
	out := rule.MustNewSet(r, rm)
	for i, c := range cands {
		ru, err := rule.New(fmt.Sprintf("m%02d", i+1), r, rm, c.LHS, c.LHS, c.RHS, c.RHS, pattern.Empty())
		if err != nil {
			return nil, fmt.Errorf("discover: candidate %d: %w", i, err)
		}
		if c.Confidence < 1 {
			if ru, err = ru.WithConfidence(c.Confidence); err != nil {
				return nil, fmt.Errorf("discover: candidate %d: %w", i, err)
			}
		}
		if err := out.Add(ru); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func sortCandidates(out []Candidate) {
	sort.SliceStable(out, func(i, j int) bool { return out[i].Support > out[j].Support })
}

// probeWorthy rejects lhs lists whose key space is too small to be a
// useful (or credible) probe key.
func probeWorthy(lhs []int, distinct []int, n int, opts Options) bool {
	best := 0
	for _, a := range lhs {
		if distinct[a] > best {
			best = distinct[a]
		}
	}
	return float64(best) >= opts.MinDistinctRatio*float64(n)
}

func subsumed(minimal []relation.AttrSet, lhs []int) bool {
	s := relation.NewAttrSet(lhs...)
	for _, m := range minimal {
		if s.ContainsSet(m) {
			return true
		}
	}
	return false
}

func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// enumerateLists appends every ascending list of the given width over
// [0, arity) to out.
func enumerateLists(arity, width int, out *[][]int) {
	list := make([]int, width)
	var walk func(start, depth int)
	walk = func(start, depth int) {
		if depth == width {
			*out = append(*out, append([]int(nil), list...))
			return
		}
		for a := start; a < arity; a++ {
			list[depth] = a
			walk(a+1, depth+1)
		}
	}
	walk(0, 0)
}
