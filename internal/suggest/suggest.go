package suggest

import (
	"repro/internal/pattern"
	"repro/internal/relation"
	"repro/internal/rule"
)

// applicable decides, for one rule ϕ of Σ, whether ϕ belongs to Σ_t[Z] of
// §5.2 — whether it can still participate in fixing t once t[Z] is
// validated. It is kept when
//
//	(a) rhs(ϕ) ∉ Z (validated attributes are protected),
//	(b) its pattern cells on Z accept t's values, and
//	(c) some master tuple is compatible: it satisfies the pattern cells on
//	    the λϕ-mapped lhs attributes and agrees with t on λϕ(X ∩ Z).
//
// Condition (c) runs on the master's indexes (the smallest one-column
// bucket of the validated lhs, each candidate's row tested against the
// pattern) instead of the O(|Dm|) scan per rule; see master.CompatibleExists. This is the one
// place the production paths decide Σ_t[Z]; d must be a pinned view.
func (d *Deriver) applicable(ru *rule.Rule, t relation.Tuple, zSet relation.AttrSet) bool {
	return !zSet.Has(ru.RHS()) && patternAccepts(ru, t, zSet) && d.dm.CompatibleExists(ru, t, zSet)
}

// applicableMask fills sc's mask with Σ_t[Z] as a mask over the Σ program
// (off[i] ⟺ rule i of Σ is outside Σ_t[Z]). Prop. 20 lets Suggest work on
// Σ_t[Z]; the refinement ϕ+ pins cells on X ∩ Z, inside ϕ's own premise,
// so the closure over Σ_t[Z] is the closure over the kept rules of Σ.
func (d *Deriver) applicableMask(sc *derScratch, t relation.Tuple, zSet relation.AttrSet) []bool {
	rules := d.sigma.Rules()
	if cap(sc.off) < len(rules) {
		sc.off = make([]bool, len(rules))
	}
	off := sc.off[:len(rules)]
	for i, ru := range rules {
		off[i] = !d.applicable(ru, t, zSet)
	}
	return off
}

// groundedMask narrows Σ_t[Z] (off, from applicableMask) to the rules
// LIKELY to fire for this tuple, as a third mask over the Σ program
// (unlikely[i] ⟺ rule i is outside Σ_t[Z] or cannot be grounded).
// Condition (c) asks only whether some master tuple agrees with the
// VALIDATED part of a premise; a kept rule is likely when one also agrees
// with what t currently holds on the rest of its lhs — the same
// CompatibleExists probe with the unvalidated lhs attributes judged too
// (a fully judged lhs is its O(1) hash path). An attribute some likely
// rule writes is not judged: its current value is about to be replaced.
//
// That exemption makes the likely set a fixpoint, and it is the LEAST one:
// start with no rule likely and every attribute judged, add rules until
// nothing changes. A cycle such as mCode → mName → mCode then grounds only
// through a value that actually occurs in Dm; started from "all likely"
// each rule would excuse the other and an entity Dm has never seen would
// still be asked for one key per round. Probes get easier as attributes
// stop being judged, so the fixpoint does not depend on rule order.
//
// The mask is a hint about which questions to ask first, never about what
// is certain: a dirty cell can make a sound rule look unlikely (its rhs is
// then asked for, one typed attribute more) and a stale one can make a dead
// rule look likely (one round more, what every such tuple cost before).
// TransFix fires on validated premises only, whatever was asked.
func (d *Deriver) groundedMask(sc *derScratch, t relation.Tuple, off []bool) []bool {
	rules := d.sigma.Rules()
	if cap(sc.unlikely) < len(rules) {
		sc.unlikely = make([]bool, len(rules))
	}
	unlikely := sc.unlikely[:len(rules)]
	for i := range unlikely {
		unlikely[i] = true
	}
	var judged relation.AttrSet
	for p := range t {
		judged.Add(p)
	}
	for changed := true; changed; {
		changed = false
		for i, ru := range rules {
			if off[i] || !unlikely[i] || !d.dm.CompatibleExists(ru, t, judged) {
				continue
			}
			unlikely[i] = false
			judged.Remove(ru.RHS()) // never in Z: condition (a) kept the rule
			changed = true
		}
	}
	return unlikely
}

// ApplicableRules materialises Σ_t[Z] of §5.2 as rules: every applicable
// rule of Σ, refined into ϕ+ by extending its pattern with X ∩ Z pinned to
// t's constants (Prop. 20 shows suggestions may be computed against
// Σ_t[Z] instead of Σ). Suggest itself never builds these — see
// applicableMask; this is the paper-facing form of the same predicate. The
// ϕ+ rules are for comparison (with the paper's examples, with
// oracle.ApplicableRules), not for probing: they are not rules of the Σ the
// master was built for, so each of its probes panics on them.
func (d *Deriver) ApplicableRules(t relation.Tuple, zSet relation.AttrSet) *rule.Set {
	d = d.Pin()
	var buf [32]*rule.Rule // on the stack for every Σ we ship; NewSet copies
	kept := buf[:0]
	for _, ru := range d.sigma.Rules() {
		if !d.applicable(ru, t, zSet) {
			continue
		}
		refined := ru.Pattern()
		touched := false
		for _, p := range ru.LHS() {
			if zSet.Has(p) {
				refined = refined.WithCell(p, pattern.Eq(t[p]))
				touched = true
			}
		}
		if !touched {
			kept = append(kept, ru) // X ∩ Z = ∅: ϕ+ coincides with ϕ (Example 14's ϕ4, ϕ5)
			continue
		}
		plus, err := ru.WithPattern(refined)
		if err != nil {
			continue // cannot happen: refinement keeps positions valid
		}
		kept = append(kept, plus)
	}
	return rule.MustNewSet(d.sigma.Schema(), d.dm.Schema(), kept...)
}

// patternAccepts checks condition (b): tp[Xp ∩ Z] ≈ t[Xp ∩ Z].
func patternAccepts(ru *rule.Rule, t relation.Tuple, zSet relation.AttrSet) bool {
	tp := ru.Pattern()
	for i := 0; i < tp.Len(); i++ {
		pos, cell := tp.CellAt(i)
		if zSet.Has(pos) && !cell.Matches(t[pos]) {
			return false
		}
	}
	return true
}

// Suggestion is the result of procedure Suggest: the attribute set S to
// recommend.
type Suggestion struct {
	S []int
}

// Suggest implements procedure Suggest of Fig. 6: decide Σ_t[Z], compute a
// (small) attribute set S such that validating t[S] on top of t[Z]
// reaches full structural coverage, and return it. An empty S means the
// closure of Z under Σ_t[Z] already covers R. Attributes no rule can reach
// end up in S themselves — the users must assert them directly, exactly
// as the paper's framework expects (Example 8: item has to be assured by
// the users).
//
// Suggest reads the tuple it is fixing: S covers R under the rules of
// Σ_t[Z] that t's current values can ground in Dm (groundedMask), so what
// a rule was never going to supply for this tuple is asked for now
// instead of a round later. Those rules are a subset of Σ_t[Z]; S
// therefore passes IsSuggestion, the paper's unhinted test, and for a
// tuple whose every premise hits Dm it is the S the structural closure
// alone yields (SuggestStructural).
func (d *Deriver) Suggest(t relation.Tuple, zSet relation.AttrSet) Suggestion {
	return d.SuggestFrom(t, zSet, nil)
}

// SuggestFrom is Suggest with the greedy growth started from Z ∪ seed
// instead of Z: the suggestion for t that keeps as much of seed as t's
// grounded rules leave necessary. It is the tuple-aware half of Suggest+ —
// seed is a structural suggestion computed for another tuple and reused on
// the tuple-blind IsSuggestionFast; growing and reverse-deleting it under
// t's own mask is what keeps one tuple's hints from being replayed to the
// next. seed must be disjoint from Z.
func (d *Deriver) SuggestFrom(t relation.Tuple, zSet relation.AttrSet, seed []int) Suggestion {
	d = d.Pin()
	sc := d.getScratch()
	defer d.putScratch(sc)
	mask := d.groundedMask(sc, t, d.applicableMask(sc, t, zSet))
	return Suggestion{S: d.cover(sc, mask, zSet, seed)}
}

// SuggestStructural is procedure Suggest exactly as Fig. 6 states it, over
// Σ_t[Z] alone: it depends on t only through the validated t[Z], which is
// what makes it the half of a suggestion Suggest+ may cache and hand to
// another tuple (through SuggestFrom).
func (d *Deriver) SuggestStructural(t relation.Tuple, zSet relation.AttrSet) Suggestion {
	d = d.Pin()
	sc := d.getScratch()
	defer d.putScratch(sc)
	return Suggestion{S: d.cover(sc, d.applicableMask(sc, t, zSet), zSet, nil)}
}

// cover grows seed greedily until the closure of Z ∪ S under the masked Σ
// program covers R, then reverse-deletes. Each greedy round evaluates
// every candidate's closure gain in one GainAll pass (the base closure
// plus undone marginal trials) instead of one full O(|Σ|²) fixpoint per
// candidate.
//
// When the unmasked rules are weighted (mined rules carrying confidence
// below 1 — see rule.Rule.Confidence), equal closure gains are broken by
// confidence mass: among tied attributes, prefer the one whose dependent
// rules are most trustworthy, so the fixes riding on the validated
// attribute lean on the best-supported evidence. Unweighted sets (every
// hand-written Σ) keep the original first-index tie-break, byte for byte.
func (d *Deriver) cover(sc *derScratch, off []bool, zSet relation.AttrSet, seed []int) []int {
	arity := d.sigma.Schema().Arity()

	// confMass[a] = Σ confidence over the unmasked rules whose premise
	// contains a: how much mined evidence stands behind validating a.
	// Computed only for weighted sets; nil keeps the unweighted path
	// allocation-free and behaviorally identical.
	var confMass []float64
	weighted := false
	for i, ru := range d.sigma.Rules() {
		weighted = weighted || !off[i] && ru.Confidence() != 1
	}
	if weighted {
		confMass = make([]float64, arity)
		for i, ru := range d.sigma.Rules() {
			if off[i] {
				continue
			}
			ru.PremiseSet().Range(func(p int) bool {
				confMass[p] += ru.Confidence()
				return true
			})
		}
	}

	cur := zSet
	var s relation.AttrSet
	cur.AddAll(seed)
	s.AddAll(seed)
	for {
		baseLen, gains := d.prog.GainAll(cur, off, sc.clo)
		if baseLen >= arity {
			break
		}
		bestAttr, bestGain := -1, -1
		for a := 0; a < arity; a++ {
			if cur.Has(a) {
				continue
			}
			if gains[a] > bestGain {
				bestGain, bestAttr = gains[a], a
			} else if confMass != nil && gains[a] == bestGain && bestAttr >= 0 && confMass[a] > confMass[bestAttr] {
				bestAttr = a // weighted tie-break: higher confidence mass wins
			}
		}
		if bestAttr < 0 {
			break
		}
		cur.Add(bestAttr)
		s.Add(bestAttr)
		// A bestGain of baseLen+1 means the attribute only covered itself;
		// keep going — remaining unreachable attributes all end up in S.
	}

	// Reverse-delete to keep S minimal (S-minimum is NP-hard, Thm 12 via
	// the Z = ∅ special case; greedy + reverse-delete is the heuristic).
	// cur is Z ∪ S throughout (S is disjoint from Z by construction), so
	// each trial is a remove/re-add instead of a fresh union.
	for a := 0; a < arity; a++ {
		if !s.Has(a) {
			continue
		}
		cur.Remove(a)
		if d.prog.Closure(cur, off, sc.clo) == arity {
			s.Remove(a)
		} else {
			cur.Add(a)
		}
	}
	return s.Positions()
}

// IsSuggestion reports whether validating t[S] on top of t[Z] reaches full
// structural coverage under Σ_t[Z].
func (d *Deriver) IsSuggestion(t relation.Tuple, zSet relation.AttrSet, s []int) bool {
	d = d.Pin()
	sc := d.getScratch()
	defer d.putScratch(sc)
	off := d.applicableMask(sc, t, zSet)
	cur := zSet
	cur.AddAll(s)
	return d.prog.Closure(cur, off, sc.clo) == d.sigma.Schema().Arity()
}

// IsSuggestionFast is the reuse test of Suggest+ (§5.2): it decides
// whether a cached suggestion still covers R using only the precomputed
// per-rule master support — no per-tuple master scans. Checking a cached
// suggestion this way is far cheaper than computing a fresh one (which
// must derive Σ_t[Z] against the master data); optimism about the
// specific tuple's values is safe because the framework re-validates
// through TransFix after the users answer. Runs on the Σ program under
// the snapshot's mask: one counter pass per check.
func (d *Deriver) IsSuggestionFast(zSet relation.AttrSet, s []int) bool {
	d = d.Pin()
	sc := d.getScratch()
	defer d.putScratch(sc)
	cur := zSet
	cur.AddAll(s)
	return d.prog.Closure(cur, d.off, sc.clo) == d.sigma.Schema().Arity()
}
