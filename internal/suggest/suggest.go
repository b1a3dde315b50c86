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
// Condition (c) runs on the master's inverted postings (smallest-first
// posting intersection under the pattern-support bitmap) instead of the
// O(|Dm|) scan per rule; see master.CompatibleExists. This is the one
// place the production paths decide Σ_t[Z]; d must be a pinned view.
func (d *Deriver) applicable(ru *rule.Rule, t relation.Tuple, zSet relation.AttrSet) bool {
	return !zSet.Has(ru.RHS()) && patternAccepts(ru, t, zSet) && d.dm.CompatibleExists(ru, t, zSet)
}

// applicableMask fills sc's mask with Σ_t[Z] as a mask over the Σ program
// (off[i] ⟺ rule i of Σ is outside Σ_t[Z]) and reports whether a kept rule
// carries a confidence below 1. Prop. 20 lets Suggest work on Σ_t[Z]; the
// refinement ϕ+ pins cells on X ∩ Z, inside ϕ's own premise, so the
// closure over Σ_t[Z] is the closure over the kept rules of Σ.
func (d *Deriver) applicableMask(sc *derScratch, t relation.Tuple, zSet relation.AttrSet) (off []bool, weighted bool) {
	rules := d.sigma.Rules()
	if cap(sc.off) < len(rules) {
		sc.off = make([]bool, len(rules))
	}
	off = sc.off[:len(rules)]
	for i, ru := range rules {
		off[i] = !d.applicable(ru, t, zSet)
		weighted = weighted || !off[i] && ru.Confidence() != 1
	}
	return off, weighted
}

// ApplicableRules materialises Σ_t[Z] of §5.2 as rules: every applicable
// rule of Σ, refined into ϕ+ by extending its pattern with X ∩ Z pinned to
// t's constants (Prop. 20 shows suggestions may be computed against
// Σ_t[Z] instead of Σ). Suggest itself never builds these — see
// applicableMask; this is the paper-facing form of the same predicate.
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
		for _, p := range ru.LHSRef() {
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
// Σ_t[Z] is a mask over the deriver's one Σ program; each greedy round
// evaluates every candidate's closure gain in one GainAll pass (the base
// closure plus undone marginal trials) instead of one full O(|Σ|²)
// fixpoint per candidate.
//
// When Σ_t[Z] is weighted (mined rules carrying confidence below 1 — see
// rule.Rule.Confidence), equal closure gains are broken by confidence
// mass: among tied attributes, prefer the one whose dependent rules are
// most trustworthy, so the fixes riding on the validated attribute lean
// on the best-supported evidence. Unweighted sets (every hand-written Σ)
// keep the original first-index tie-break, byte for byte.
func (d *Deriver) Suggest(t relation.Tuple, zSet relation.AttrSet) Suggestion {
	d = d.Pin()
	arity := d.sigma.Schema().Arity()
	sc := d.getScratch()
	defer d.putScratch(sc)
	off, weighted := d.applicableMask(sc, t, zSet)

	// confMass[a] = Σ confidence over the rules of Σ_t[Z] whose premise
	// contains a: how much mined evidence stands behind validating a.
	// Computed only for weighted sets; nil keeps the unweighted path
	// allocation-free and behaviorally identical.
	var confMass []float64
	if weighted {
		confMass = make([]float64, arity)
		for i, ru := range d.sigma.Rules() {
			if off[i] {
				continue
			}
			for _, p := range ru.PremiseSet().Positions() {
				confMass[p] += ru.Confidence()
			}
		}
	}

	cur := zSet.Clone()
	var s relation.AttrSet
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
	for _, a := range s.Positions() {
		cur.Remove(a)
		if d.prog.Closure(cur, off, sc.clo) == arity {
			s.Remove(a)
		} else {
			cur.Add(a)
		}
	}
	return Suggestion{S: s.Positions()}
}

// IsSuggestion reports whether validating t[S] on top of t[Z] reaches full
// structural coverage under Σ_t[Z].
func (d *Deriver) IsSuggestion(t relation.Tuple, zSet relation.AttrSet, s []int) bool {
	d = d.Pin()
	sc := d.getScratch()
	defer d.putScratch(sc)
	off, _ := d.applicableMask(sc, t, zSet)
	cur := zSet.Clone()
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
	cur := zSet.Clone()
	cur.AddAll(s)
	return d.prog.Closure(cur, d.off, sc.clo) == d.sigma.Schema().Arity()
}
