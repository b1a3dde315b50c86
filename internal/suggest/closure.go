// Package suggest implements certain-region derivation and the suggestion
// machinery of §5 of the paper:
//
//   - CompCRegion — the heuristic that derives certain regions from
//     (Σ, Dm) ranked by a quality metric. The paper delegates this to its
//     companion conference paper [20] and omits the algorithm; this is a
//     reconstruction with the published interface, complexity envelope
//     (O(|Σ|²·|Dm|·log|Dm|)) and contract (see DESIGN.md, substitution 2):
//     greedy seed growth over the structural rule closure, reverse-delete
//     minimization, verification through the Theorem-4 checker.
//   - GRegion — the greedy baseline of §6 Exp-1(1): at each stage pick the
//     attribute that directly fixes the most uncovered attributes.
//   - ApplicableRules — the refined rule set Σ_t[Z] of §5.2 (Prop. 20).
//   - Suggest — procedure Suggest of Fig. 6: the next attribute set to ask
//     the users about.
//
// CompCRegion's seed growth and Suggest are one greedy cover (grow): grow
// from a base until the closure covers R, then reverse-delete what the
// closure does not need, keeping Σ's free attributes for a region and Z
// for a suggestion.
//
// The Z-minimum and S-minimum problems behind these heuristics are
// NP-complete and inapproximable within c·log n (Thms 12, 17, 19), which
// is why the paper itself prescribes heuristics here.
//
// The hot paths run on two compiled engines: the counter-based closure
// program of internal/rule (rule.Compiled, replacing the naive O(|Σ|²)
// fixpoint) and the one-column indexes of internal/master (replacing the
// per-rule Dm scans). Σ is compiled ONCE, when the Deriver handle is
// built, and rule r of the program is rule r of Σ for its whole life;
// every view and every view's §4 checker (whose step-(g) reachability is
// one more mask) runs that program. What varies is which rules take part
// in a closure, and that is a mask over the program, never another
// program:
//
//   - a snapshot's mask (unsupported): the rules no master tuple of that
//     epoch can ever fire — region derivation and IsSuggestionFast;
//   - a tuple's mask (Deriver.applicableMask): the rules outside Σ_t[Z] —
//     IsSuggestion, SuggestStructural and the base of the next mask. A refined rule ϕ+ of §5.2 pins pattern
//     cells on X ∩ Z only, attributes already in ϕ's premise X ∪ Xp, so
//     for the structural closure Σ_t[Z] is a subset of Σ and no ϕ+ is
//     built on the request path (ApplicableRules materialises them for
//     callers that want the rules themselves);
//   - a tuple's grounded mask (Deriver.groundedMask): also the rules of
//     Σ_t[Z] whose lhs no master tuple matches at t's current values —
//     Suggest. It orders the questions, never decides a fix: what it keeps is
//     a subset of Σ_t[Z], so a suggestion under it is one under Σ_t[Z].
//
// The naive implementations these engines replaced live in internal/oracle;
// the property tests assert output equivalence on randomized instances.
package suggest

import (
	"repro/internal/master"
	"repro/internal/relation"
	"repro/internal/rule"
)

// unsupported marks, per rule of Σ, whether NO master tuple satisfies the
// rule's pattern cells on the λϕ-mapped attributes (the structural "can
// this rule ever fire on this snapshot" test, negated): a snapshot's mask
// over the Σ program. Reads the pattern-support counts the master keeps
// with its rows: O(|Σ|). dm must be built for Σ (its probes panic on any
// other rule).
func unsupported(sigma *rule.Set, dm *master.Data) []bool {
	off := make([]bool, sigma.Len())
	for i, ru := range sigma.Rules() {
		off[i] = !dm.PatternSupported(ru)
	}
	return off
}

// directCover counts the attributes fixable in exactly one step from zSet
// (no cascading) — the myopic objective GRegion maximizes.
func directCover(sigma *rule.Set, off []bool, zSet relation.AttrSet) relation.AttrSet {
	out := zSet
	for i, ru := range sigma.Rules() {
		if !off[i] && !zSet.Has(ru.RHS()) && zSet.ContainsSet(ru.PremiseSet()) {
			out.Add(ru.RHS())
		}
	}
	return out
}
