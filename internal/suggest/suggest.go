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
	from := zSet
	from.AddAll(seed)
	return Suggestion{S: d.grow(sc, mask, zSet, from, d.confidenceMass(mask)).Positions()}
}

// SuggestStructural is procedure Suggest exactly as Fig. 6 states it, over
// Σ_t[Z] alone: it depends on t only through the validated t[Z], which is
// what makes it the half of a suggestion Suggest+ may cache and hand to
// another tuple (through SuggestFrom).
func (d *Deriver) SuggestStructural(t relation.Tuple, zSet relation.AttrSet) Suggestion {
	d = d.Pin()
	sc := d.getScratch()
	defer d.putScratch(sc)
	mask := d.applicableMask(sc, t, zSet)
	return Suggestion{S: d.grow(sc, mask, zSet, zSet, d.confidenceMass(mask)).Positions()}
}

// confidenceMass returns, when some rule the mask keeps is weighted (mined
// rules carrying confidence below 1 — see rule.Rule.Confidence), each
// attribute's confidence mass: the summed confidence of the kept rules
// whose premise contains it, how much mined evidence stands behind
// validating it. For an unweighted mask (every hand-written Σ) it returns
// nil, which keeps grow's first-index tie-break byte for byte.
func (d *Deriver) confidenceMass(off []bool) []float64 {
	rules := d.sigma.Rules()
	weighted := false
	for i, ru := range rules {
		weighted = weighted || !off[i] && ru.Confidence() != 1
	}
	if !weighted {
		return nil
	}
	mass := make([]float64, d.sigma.Schema().Arity())
	for i, ru := range rules {
		if !off[i] {
			ru.PremiseSet().Range(func(p int) bool {
				mass[p] += ru.Confidence()
				return true
			})
		}
	}
	return mass
}

// grow is the greedy cover behind both Suggest and region derivation:
// starting from the attribute set from, it adds the attribute whose
// addition enlarges the closure under the masked Σ program most until the
// closure covers R, then reverse-deletes every attribute outside keep
// whose removal keeps R covered, in ascending order. It returns what is
// left outside keep. Suggest keeps Z (validated attributes are the users'
// already); region growth keeps Σ's free attributes, which no rule can
// supply.
//
// The base is closed once: each greedy round evaluates every candidate's
// gain from the held closure in one GainAll pass, and Extend keeps the
// chosen attribute's consequences. Every attribute covers itself, so a
// round always adds one and attributes no rule reaches end up in the
// result themselves — the users must assert them directly (Example 8:
// item has to be assured by the users).
//
// mass, when not nil, breaks equal gains: among tied attributes the one
// with the larger confidence mass wins, so the fixes riding on it lean on
// the best-supported evidence; otherwise the lowest index wins.
// (S-minimum is NP-hard, Thm 12 via the Z = ∅ special case; greedy +
// reverse-delete is the heuristic.)
func (d *Deriver) grow(sc *derScratch, off []bool, keep, from relation.AttrSet, mass []float64) relation.AttrSet {
	arity := d.sigma.Schema().Arity()
	cur := from
	for size := d.prog.Closure(cur, off, sc.clo); size < arity; {
		gains := d.prog.GainAll(sc.clo)
		best := -1
		for a := range arity {
			if cur.Has(a) {
				continue
			}
			if best < 0 || gains[a] > gains[best] ||
				mass != nil && gains[a] == gains[best] && mass[a] > mass[best] {
				best = a
			}
		}
		cur.Add(best)
		size = d.prog.Extend(best, sc.clo)
	}
	var grown relation.AttrSet
	for a := range arity {
		if !cur.Has(a) || keep.Has(a) {
			continue
		}
		cur.Remove(a)
		if d.prog.Closure(cur, off, sc.clo) < arity {
			cur.Add(a)
			grown.Add(a)
		}
	}
	return grown
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
