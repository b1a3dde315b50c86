package fix

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/master"
	"repro/internal/relation"
	"repro/internal/rule"
)

// ErrInconsistent is the sentinel for "no certain fix exists under the
// asserted values": applicable rule/master pairs disagree, so proceeding
// would mean guessing. Concrete failures carry details in a
// *ConflictError; errors.Is(err, ErrInconsistent) matches both.
var ErrInconsistent = errors.New("fix: no certain fix: applicable rules conflict on asserted values")

// ConflictError reports that two applicable rule/master pairs disagree on
// the value of one attribute — the inconsistency witness of §4. TransFix
// assumes (Σ, Dm) is consistent relative to the working region; when the
// assumption fails it surfaces this error instead of guessing.
type ConflictError struct {
	Attr   int
	Values []relation.Value
}

// Error implements error.
func (e *ConflictError) Error() string {
	return fmt.Sprintf("fix: conflicting certain values %v for attribute %d", e.Values, e.Attr)
}

// Is matches ErrInconsistent, so callers can test the condition with
// errors.Is without naming the concrete type.
func (e *ConflictError) Is(target error) bool { return target == ErrInconsistent }

// Witness records where one fixed attribute's value came from: the rule
// that fired and the master tuple id whose RHSM cell supplied the value.
// One witness per fixed attribute, in application order — together they
// are the fix's provenance, checkable by anyone holding the rules, the
// claimed master tuples and the master commitment root
// (pkg/certainfix.VerifyFix).
type Witness struct {
	// Attr is the tuple position the rule fixed.
	Attr int
	// Rule is the name of the editing rule that fired.
	Rule string
	// MasterID is the smallest id (at the fix's epoch) of a master tuple
	// matching the rule against the tuple's validated premise. Any match
	// would do as a witness: TransFix only fixes when every applicable
	// rule/master pair agrees on the value, so every match carries it.
	MasterID int
}

// node processing states for TransFix.
const (
	nodeUnusable = iota // premise not validated, not yet reachable
	nodeInUset          // candidate: reachable but premise incomplete
	nodeInVset          // usable: premise validated, awaiting processing
	nodeDone            // processed; never revisited (premise values frozen)
)

// TransFix is procedure TransFix of §5.1 (Fig. 5). Given a tuple t whose
// attributes zSet are validated, it applies editing rules in dependency
// order, fixing attributes with master values and extending zSet in place.
// It returns the positions it newly validated, in application order.
//
// The dependency graph is computed once per Σ (rule.NewDepGraph) and
// shared across calls. Each rule is processed at most once: premise values
// are frozen once validated, so re-examination can never change the
// outcome. Complexity O(|V|·|Σ|), as analyzed in the paper.
func TransFix(g *rule.DepGraph, dm *master.Data, t relation.Tuple, zSet *relation.AttrSet) ([]int, error) {
	return TransFixTrace(g, dm, t, zSet, nil)
}

// TransFixTrace is TransFix with provenance: when trace is non-nil, one
// Witness is appended per fixed attribute, naming the rule that fired and
// the smallest-id master tuple that supplied the value. The fix itself is
// identical — the witness comes out of the one probe the firing rule
// makes.
func TransFixTrace(g *rule.DepGraph, dm *master.Data, t relation.Tuple, zSet *relation.AttrSet, trace *[]Witness) ([]int, error) {
	sigma := g.Set()
	n := sigma.Len()
	// Each rule enters vset at most once, so n slots hold it.
	buf := make([]int, 2*n)
	state, vset := buf[:n], buf[n:n]

	// Lines 1–4: collect rules whose premise X ∪ Xp is already validated.
	for v := 0; v < n; v++ {
		if zSet.ContainsSet(sigma.Rule(v).PremiseSet()) {
			state[v] = nodeInVset
			vset = append(vset, v)
		}
	}

	var fixed []int
	// own holds the fired rule's values, peers those of every applicable
	// rule on its rhs: the two lists each probe appends into.
	var own, peers []relation.Value
	// Lines 5–15: consume vset, upgrading candidates as attributes become
	// validated.
	for len(vset) > 0 {
		v := vset[len(vset)-1]
		vset = vset[:len(vset)-1]
		state[v] = nodeDone
		rv := sigma.Rule(v)

		if !zSet.Has(rv.RHS()) {
			// One probe of rv answers all three questions: does it apply
			// (any value), to what (the values), and on whose evidence (the
			// witness — rv applies, so each of its matches carries one of
			// the values, and a fix happens only when there is exactly one).
			var witness int
			if own, witness = dm.AppendRHSValues(own[:0], rv, t); len(own) > 0 {
				values := certainValues(sigma, dm, t, *zSet, v, own, &peers)
				if len(values) > 1 {
					return fixed, &ConflictError{Attr: rv.RHS(), Values: values}
				}
				if trace != nil {
					*trace = append(*trace, Witness{Attr: rv.RHS(), Rule: rv.Name(), MasterID: witness})
				}
				t[rv.RHS()] = values[0]
				zSet.Add(rv.RHS())
				fixed = append(fixed, rv.RHS())
			}
		}

		// Lines 9–15: examine successors of v.
		for _, u := range g.Successors(v) {
			switch state[u] {
			case nodeInUset:
				if zSet.ContainsSet(sigma.Rule(u).PremiseSet()) {
					state[u] = nodeInVset
					vset = append(vset, u)
				}
			case nodeUnusable:
				if zSet.ContainsSet(sigma.Rule(u).PremiseSet()) {
					state[u] = nodeInVset
					vset = append(vset, u)
				} else {
					state[u] = nodeInUset
				}
			}
		}
	}
	return fixed, nil
}

// certainValues collects the distinct values that currently-applicable
// rules (premise validated, pattern matched, master match found) would
// assign to the rhs of Σ's fired-th rule, in rule order, into the list
// *peers; own are the values of the rule that fired, already probed by the
// caller and merged in at its place in that order, and the answer when no
// other rule has that rhs. Each rule is probed at most once. More than one
// value is a consistency violation at the current state; TransFix refuses
// to pick among them. Rules whose premise is not yet validated do not
// participate — ordering conflicts across states are the checkers' concern
// (§4), not the fixer's.
func certainValues(sigma *rule.Set, dm *master.Data, t relation.Tuple, zSet relation.AttrSet, fired int, own []relation.Value, peers *[]relation.Value) []relation.Value {
	b := sigma.Rule(fired).RHS()
	values, alone := (*peers)[:0], true
	for i, ru := range sigma.Rules() {
		switch {
		case ru.RHS() != b:
		case i == fired:
			if !alone { // after peers: add the values they did not bring
				for _, v := range own {
					if !slices.Contains(values, v) {
						values = append(values, v)
					}
				}
			}
		default:
			if alone && i > fired {
				values = append(values, own...) // the fired rule comes first
			}
			alone = false
			if zSet.ContainsSet(ru.PremiseSet()) {
				values, _ = dm.AppendRHSValues(values, ru, t)
			}
		}
	}
	if alone {
		return own
	}
	*peers = values
	return values
}
