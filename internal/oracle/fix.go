package oracle

import (
	"fmt"

	"repro/internal/fix"
	"repro/internal/master"
	"repro/internal/relation"
	"repro/internal/rule"
)

// Outcome is one terminal state of the fixing process: the fixed tuple and
// the set Zk of attributes covered (validated) when it terminated.
type Outcome struct {
	Tuple   relation.Tuple
	Covered relation.AttrSet
}

// ExploreResult summarizes the reachable terminal states of the fixing
// process started from one tuple and one validated set.
type ExploreResult struct {
	Outcomes  []Outcome // distinct terminal states, discovery order
	States    int       // number of distinct intermediate states visited
	Truncated bool      // state cap was hit; Outcomes may be incomplete
}

// Unique reports whether exactly one terminal tuple is reachable. (Distinct
// outcomes always differ in their tuples: §3 implies equal terminal tuples
// have equal covered sets, and Explore deduplicates on both.)
func (r ExploreResult) Unique() bool { return len(r.Outcomes) == 1 && !r.Truncated }

// DefaultStateCap bounds the exhaustive search. The underlying decision
// problems are coNP-hard (Thms 1–2), so the oracle is exponential in the
// worst case; realistic rule sets terminate in a handful of states.
const DefaultStateCap = 1 << 17

// Explore exhaustively enumerates every terminal state reachable from
// (t, zSet) by region-relative rule applications, memoizing states. The
// input tuple is not mutated. cap ≤ 0 selects DefaultStateCap.
func Explore(sigma *rule.Set, dm *master.Data, t relation.Tuple, zSet relation.AttrSet, cap int) ExploreResult {
	if cap <= 0 {
		cap = DefaultStateCap
	}
	e := &explorer{
		sigma: sigma, dm: dm, cap: cap,
		seen: map[uint64][]stateEntry{},
	}
	e.dfs(t.Clone(), zSet)
	return ExploreResult{Outcomes: e.outcomes, States: e.states, Truncated: e.truncated}
}

// stateEntry is one memoized state. A fixing state is fully identified by
// (Z, t[Z]): attributes outside Z always hold their original values, since
// rules only write attributes they validate.
type stateEntry struct {
	t relation.Tuple
	z relation.AttrSet
}

type explorer struct {
	sigma     *rule.Set
	dm        *master.Data
	cap       int
	states    int
	truncated bool
	// seen memoizes visited states keyed by a uint64 FNV-1a hash of
	// (Z, t[Z]) — no string building per state. A hash is not an
	// encoding, so bucket entries are verified against the stored state,
	// mirroring the master-index collision scheme.
	seen     map[uint64][]stateEntry
	outcomes []Outcome
}

// visited reports whether (t, zSet) was already explored, recording it
// when new. The stored entries alias the caller's tuple and set, which
// dfs frames never mutate after the call.
func (e *explorer) visited(t relation.Tuple, zSet relation.AttrSet) bool {
	h := hashState(t, zSet)
	for _, s := range e.seen[h] {
		if sameState(s, t, zSet) {
			return true
		}
	}
	e.seen[h] = append(e.seen[h], stateEntry{t: t, z: zSet})
	return false
}

func hashState(t relation.Tuple, zSet relation.AttrSet) uint64 {
	acc := relation.HashSeed()
	zSet.Range(func(p int) bool {
		acc = relation.HashInt(acc, p)
		acc = relation.HashValue(acc, t[p])
		return true
	})
	return acc
}

func sameState(s stateEntry, t relation.Tuple, zSet relation.AttrSet) bool {
	if !s.z.Equal(zSet) {
		return false
	}
	same := true
	zSet.Range(func(p int) bool {
		same = s.t[p].Equal(t[p])
		return same
	})
	return same
}

func (e *explorer) dfs(t relation.Tuple, zSet relation.AttrSet) {
	if e.truncated {
		return
	}
	if e.visited(t, zSet) {
		return
	}
	e.states++
	if e.states > e.cap {
		e.truncated = true
		return
	}

	pairs := ApplicablePairs(e.sigma, e.dm, t, zSet)
	if len(pairs) == 0 {
		// Terminal; states are memoized above, so each is reached once.
		e.outcomes = append(e.outcomes, Outcome{Tuple: t.Clone(), Covered: zSet})
		return
	}

	// Successor states are determined by the (B, value) assignment, not by
	// which rule/master pair produced it; dedupe to curb branching.
	type succ struct {
		b int
		v relation.Value
	}
	tried := map[succ]bool{}
	for _, p := range pairs {
		b := p.Rule.RHS()
		v := e.dm.Cell(p.MasterID, p.Rule.RHSM())
		s := succ{b, v}
		if tried[s] {
			continue
		}
		tried[s] = true
		nt := t.Clone()
		nt[b] = v
		nz := zSet
		nz.Add(b)
		e.dfs(nt, nz)
	}
}

// UniqueFix computes the fix of t by (Σ, Dm) w.r.t. region (Z, Tc) via
// exhaustive exploration. It errors when t is not marked by the region
// (fixing an unmarked tuple is not justified, §3). On success it reports
// the terminal tuple, the covered attribute set, and whether the fix is
// unique.
func UniqueFix(sigma *rule.Set, dm *master.Data, reg *fix.Region, t relation.Tuple) (relation.Tuple, relation.AttrSet, bool, error) {
	if !reg.Marks(t) {
		return nil, relation.AttrSet{}, false, fmt.Errorf("oracle: tuple %v is not marked by region %v", t, reg.Z())
	}
	res := Explore(sigma, dm, t, reg.ZSet(), 0)
	if res.Truncated {
		return nil, relation.AttrSet{}, false, fmt.Errorf("oracle: state space exceeded cap while exploring fixes")
	}
	if !res.Unique() {
		return nil, relation.AttrSet{}, false, nil
	}
	o := res.Outcomes[0]
	return o.Tuple, o.Covered, true, nil
}

// IsCertainFix reports whether t has a certain fix by (Σ, Dm) w.r.t. the
// region: a unique fix whose covered set includes every R attribute (§3).
func IsCertainFix(sigma *rule.Set, dm *master.Data, reg *fix.Region, t relation.Tuple) (relation.Tuple, bool, error) {
	fixed, covered, unique, err := UniqueFix(sigma, dm, reg, t)
	if err != nil || !unique {
		return nil, false, err
	}
	return fixed, covered.Len() == sigma.Schema().Arity(), nil
}

// Pair is an applicable (rule, master-tuple) pair.
type Pair struct {
	Rule     *rule.Rule
	MasterID int
}

// ApplicablePairs enumerates every (ϕ, tm) pair that applies to t with
// respect to zSet, deciding t[X] = tm[Xm] by a scan of Dm.
func ApplicablePairs(sigma *rule.Set, dm *master.Data, t relation.Tuple, zSet relation.AttrSet) []Pair {
	var out []Pair
	for _, ru := range sigma.Rules() {
		if zSet.Has(ru.RHS()) || !zSet.ContainsSet(ru.PremiseSet()) {
			continue
		}
		if !ru.MatchesPattern(t) {
			continue
		}
		for id := range agreeing(dm, ru, t, ru.LHSSet()) {
			out = append(out, Pair{Rule: ru, MasterID: id})
		}
	}
	return out
}

// NaiveFix computes the same result as fix.TransFix by repeatedly scanning
// the whole rule set until a fixpoint, without the dependency graph. It is
// the ablation baseline for the dependency-graph design choice (§5.1):
// worst-case O(|R|·|Σ|·probe) instead of TransFix's one-pass ordering.
func NaiveFix(sigma *rule.Set, dm *master.Data, t relation.Tuple, zSet *relation.AttrSet) ([]int, error) {
	var fixed []int
	for {
		progressed := false
		for _, ru := range sigma.Rules() {
			if zSet.Has(ru.RHS()) || !zSet.ContainsSet(ru.PremiseSet()) || len(rhsValues(nil, dm, ru, t)) == 0 {
				continue
			}
			values := certainValues(sigma, dm, t, *zSet, ru.RHS())
			if len(values) > 1 {
				return fixed, &fix.ConflictError{Attr: ru.RHS(), Values: values}
			}
			t[ru.RHS()] = values[0]
			zSet.Add(ru.RHS())
			fixed = append(fixed, ru.RHS())
			progressed = true
		}
		if !progressed {
			return fixed, nil
		}
	}
}

// certainValues is the set of values §3 lets the fixing process write
// into attribute b at state (t, zSet): tm[Bm] over every rule of Σ with
// rhs b whose premise is validated, and every master tuple applicable with
// it. More than one value means two applicable pairs disagree — the
// state has no certain fix.
func certainValues(sigma *rule.Set, dm *master.Data, t relation.Tuple, zSet relation.AttrSet, b int) []relation.Value {
	var values []relation.Value
	for _, ru := range sigma.Rules() {
		if ru.RHS() == b && zSet.ContainsSet(ru.PremiseSet()) {
			values = rhsValues(values, dm, ru, t)
		}
	}
	return values
}
