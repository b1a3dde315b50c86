package discover

// The postings engine: dependency mining on the interned id rows of
// internal/master.
//
// Instead of rehashing every tuple per candidate (the naive oracle's
// O(candidates × n) string-keyed map work), each column is read ONCE as a
// dense array of interned value ids (Data.ColumnIDs — the master stores its
// cells that way), and support counting becomes TANE-style
// stripped-partition refinement over uint32 ids:
//
//   - the partition of a lhs list is the set of tuple-id classes agreeing
//     on that lhs; singleton classes are dropped ("stripped") and only
//     counted, since they can neither split further nor violate anything;
//   - refining by one more column is two passes over each class with an
//     epoch-stamped counting scratch — no maps, no hashing, no clearing;
//   - a dependency's violations are counted class by class (size minus
//     majority count), with early exit once the budget maxViolations
//     allows is exceeded — the exact-mining budget is 0, so the common
//     clean-prefix case stops at the first contradiction like the oracle.
//
// The lattice fans out per level on internal/parallel (per-worker
// scratch, results consumed in enumeration order). Determinism for every
// worker and shard count comes from ordering everything by FIRST
// OCCURRENCE IN TUPLE ORDER: value-id numbering depends on interning
// order (a delta chain's differs from a rebuild's), so ids are used
// only for equality, never for ordering. Minimality pruning (covered[b])
// updates at level boundaries only — within one level all lhs sets have
// equal width, so none can subsume another and the oracle's scan-order
// updates are observationally identical.

import (
	"repro/internal/master"
	"repro/internal/parallel"
	"repro/internal/relation"
)

// Mine mines dependencies from the master relation on the postings
// engine: it interns the relation into an ephemeral index-free snapshot and
// delegates to DependenciesMaster. Output is identical to Dependencies (the
// naive oracle) for every Options value.
func Mine(masterRel *relation.Relation, opts Options) []Candidate {
	if masterRel.Len() == 0 {
		return nil
	}
	return DependenciesMaster(master.New(masterRel), opts)
}

// DependenciesMaster mines dependencies from an existing master snapshot,
// which it only reads. The result is identical to Dependencies over dm's
// relation.
func DependenciesMaster(dm *master.Data, opts Options) []Candidate {
	opts = opts.withDefaults()
	if dm.Len() == 0 {
		return nil
	}
	return newMiner(dm).dependencies(opts)
}

// partition is a stripped partition of tuple ids: classes holds the
// agree-groups of size ≥ 2 (each in ascending tuple order, classes
// ordered by first occurrence), rest counts the dropped singletons.
type partition struct {
	classes [][]int32
	rest    int
}

// support is the number of distinct keys: one per class plus the
// singletons.
func (p partition) support() int { return len(p.classes) + p.rest }

// minerScratch is the per-worker epoch-stamped counting table, indexed by
// interned value id. stamp[v] != epoch means count[v] is garbage, so
// clearing between classes is a single epoch bump.
type minerScratch struct {
	epoch uint32
	stamp []uint32
	count []int32
}

func newScratch(nsyms int) *minerScratch {
	return &minerScratch{epoch: 0, stamp: make([]uint32, nsyms), count: make([]int32, nsyms)}
}

func (sc *minerScratch) bump() {
	sc.epoch++
	if sc.epoch == 0 { // wrapped: stamps are ambiguous, reset
		for i := range sc.stamp {
			sc.stamp[i] = 0
		}
		sc.epoch = 1
	}
}

// refine splits every class of p by the value ids in col. Two passes per
// class: count members per id, then emit subclasses of size ≥ 2 in
// first-occurrence order (count[v] is flipped to the negative slot index
// on first emission). New singletons move to rest.
func refine(p partition, col []uint32, sc *minerScratch) partition {
	out := partition{rest: p.rest, classes: make([][]int32, 0, len(p.classes))}
	for _, class := range p.classes {
		sc.bump()
		for _, id := range class {
			v := col[id]
			if sc.stamp[v] != sc.epoch {
				sc.stamp[v] = sc.epoch
				sc.count[v] = 0
			}
			sc.count[v]++
		}
		for _, id := range class {
			v := col[id]
			c := sc.count[v]
			if c < 0 { // subclass already has a slot: -slot-1
				out.classes[-c-1] = append(out.classes[-c-1], id)
				continue
			}
			if c == 1 {
				out.rest++
				continue
			}
			slot := len(out.classes)
			sub := make([]int32, 1, c)
			sub[0] = id
			out.classes = append(out.classes, sub)
			sc.count[v] = -int32(slot) - 1
		}
	}
	return out
}

// violations counts, class by class, the members outside the class's rhs
// majority. Returns ok=false (with the running count) as soon as the
// budget is exceeded; a budget of 0 makes this an exact check with early
// exit on the first contradiction.
func violations(p partition, col []uint32, sc *minerScratch, maxViol int) (int, bool) {
	viol := 0
	for _, class := range p.classes {
		sc.bump()
		var maxc int32
		for _, id := range class {
			v := col[id]
			if sc.stamp[v] != sc.epoch {
				sc.stamp[v] = sc.epoch
				sc.count[v] = 0
			}
			sc.count[v]++
			if sc.count[v] > maxc {
				maxc = sc.count[v]
			}
		}
		viol += len(class) - int(maxc)
		if viol > maxViol {
			return viol, false
		}
	}
	return viol, true
}

// miner holds the per-mining-run decoded columns and level-1 partitions.
type miner struct {
	n, arity int
	nsyms    int
	dm       *master.Data
	cols     [][]uint32
	distinct []int
	p1       []partition
}

func newMiner(dm *master.Data) *miner {
	n, arity := dm.Len(), dm.Schema().Arity()
	m := &miner{n: n, arity: arity, nsyms: dm.SymbolCount(), dm: dm}
	m.cols = make([][]uint32, arity)
	for a := 0; a < arity; a++ {
		m.cols[a] = dm.ColumnIDs(a)
	}
	// Level-1 partitions refine the universe class [0, n) — giving
	// first-seen-in-tuple-order classes, the determinism anchor.
	all := make([]int32, n)
	for i := range all {
		all[i] = int32(i)
	}
	universe := partition{classes: [][]int32{all}}
	sc := newScratch(m.nsyms)
	m.p1 = make([]partition, arity)
	m.distinct = make([]int, arity)
	for a := 0; a < arity; a++ {
		m.p1[a] = refine(universe, m.cols[a], sc)
		m.distinct[a] = m.p1[a].support()
	}
	return m
}

// partitionOf refines the level-1 partition of lhs[0] by the remaining
// lhs columns.
func (m *miner) partitionOf(lhs []int, sc *minerScratch) partition {
	p := m.p1[lhs[0]]
	for _, a := range lhs[1:] {
		p = refine(p, m.cols[a], sc)
	}
	return p
}

// mineLHS evaluates one lattice node: all rhs candidates for the given
// lhs list. covered is read-only during a level (see the package note on
// level-boundary updates).
func (m *miner) mineLHS(lhs []int, covered [][]relation.AttrSet, maxViol int, opts Options, sc *minerScratch) []Candidate {
	if !probeWorthy(lhs, m.distinct, m.n, opts) {
		return nil
	}
	p := m.partitionOf(lhs, sc)
	sup := p.support()
	if sup < opts.MinSupport {
		return nil
	}
	var out []Candidate
	for b := 0; b < m.arity; b++ {
		if contains(lhs, b) || m.distinct[b] <= 1 {
			continue
		}
		if subsumed(covered[b], lhs) {
			continue
		}
		viol, ok := violations(p, m.cols[b], sc, maxViol)
		if !ok {
			continue
		}
		out = append(out, Candidate{
			LHS: append([]int(nil), lhs...), RHS: b,
			Support: sup, Violations: viol,
			Confidence: confidence(m.n, viol),
		})
	}
	return out
}

// dependencies runs the level-wise lattice search, fanning each level out
// on internal/parallel and consuming results in enumeration order.
func (m *miner) dependencies(opts Options) []Candidate {
	maxViol := maxViolations(m.n, opts)
	var out []Candidate
	covered := make([][]relation.AttrSet, m.arity)
	var lhsLists [][]int
	for width := 1; width <= opts.MaxLHS; width++ {
		lhsLists = lhsLists[:0]
		enumerateLists(m.arity, width, &lhsLists)
		results, err := parallel.MapWorkers(len(lhsLists), opts.Workers,
			func() func(i int) ([]Candidate, error) {
				sc := newScratch(m.nsyms)
				return func(i int) ([]Candidate, error) {
					return m.mineLHS(lhsLists[i], covered, maxViol, opts, sc), nil
				}
			})
		if err != nil {
			panic(err) // unreachable: mineLHS cannot fail
		}
		for _, cs := range results {
			for _, c := range cs {
				out = append(out, c)
				covered[c.RHS] = append(covered[c.RHS], relation.NewAttrSet(c.LHS...))
			}
		}
	}
	sortCandidates(out)
	return out
}
