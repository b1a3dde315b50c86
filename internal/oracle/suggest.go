package oracle

import (
	"repro/internal/master"
	"repro/internal/pattern"
	"repro/internal/relation"
	"repro/internal/rule"
)

// The pre-compilation forms of the §5 paths: the same decisions as
// package suggest's Deriver, minus the compiled closure engine and every
// master index and pattern-support count.

// ApplicableRules is Σ_t[Z] of §5.2 with conditions (a)–(c) spelled out,
// (c) decided by the O(|Dm|) scan: every rule of Σ that can still take
// part in fixing t once t[Z] is validated, refined into ϕ+ by pinning
// X ∩ Z to t's constants.
func ApplicableRules(sigma *rule.Set, dm *master.Data, t relation.Tuple, zSet relation.AttrSet) *rule.Set {
	out := rule.MustNewSet(sigma.Schema(), dm.Schema())
	for _, ru := range sigma.Rules() {
		if zSet.Has(ru.RHS()) {
			continue // (a)
		}
		if !patternAccepts(ru, t, zSet) {
			continue // (b)
		}
		if !MasterCompatible(dm, ru, t, zSet) {
			continue // (c)
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
			out.Add(ru)
			continue
		}
		plus, err := ru.WithPattern(refined)
		if err != nil {
			continue
		}
		out.Add(plus)
	}
	return out
}

// patternAccepts is condition (b) of §5.2: the rule's pattern accepts t on
// the validated attributes, t[Xp ∩ Z] ≈ tp[Xp ∩ Z].
func patternAccepts(ru *rule.Rule, t relation.Tuple, zSet relation.AttrSet) bool {
	tp := ru.Pattern()
	for i := range tp.Len() {
		if p, cell := tp.CellAt(i); zSet.Has(p) && !cell.Matches(t[p]) {
			return false
		}
	}
	return true
}

// MasterCompatible is condition (c) of §5.2 decided the naive way: a scan
// over Dm for a tuple agreeing with t on λϕ(X ∩ Z) and pattern-compatible
// on the lhs. Oracle for master.Data.CompatibleExists.
func MasterCompatible(dm *master.Data, ru *rule.Rule, t relation.Tuple, zSet relation.AttrSet) bool {
	for id := range agreeing(dm, ru, t, zSet) {
		if patternCompatibleMaster(dm, ru, id) {
			return true
		}
	}
	return false
}

// patternCompatibleMaster checks tm[λϕ(Xp ∩ X)] ≈ tp[Xp ∩ X] for master
// tuple id.
func patternCompatibleMaster(dm *master.Data, ru *rule.Rule, id int) bool {
	x, xm := ru.LHS(), ru.LHSM()
	tp := ru.Pattern()
	for i := range x {
		if cell, has := tp.CellFor(x[i]); has && !cell.Matches(dm.Cell(id, xm[i])) {
			return false
		}
	}
	return true
}

// MasterSupports is the naive O(|Dm|) pattern-support test: some master
// tuple satisfies the rule's pattern cells on the λϕ-mapped lhs
// attributes, so the rule can fire on this snapshot at all. Oracle for
// master.Data.PatternSupported.
func MasterSupports(dm *master.Data, ru *rule.Rule) bool {
	for id := range dm.Len() {
		if patternCompatibleMaster(dm, ru, id) {
			return true
		}
	}
	return false
}

// StructuralClosure is the naive O(|Σ|²) fixpoint: the attributes
// validated from zSet by cascading rule applications, using only the
// structure of Σ and the mask off (aligned with sigma.Rules(), as for
// rule.Compiled.Closure). Oracle for the compiled closure engine.
func StructuralClosure(sigma *rule.Set, off []bool, zSet relation.AttrSet) relation.AttrSet {
	out := zSet
	for changed := true; changed; {
		changed = false
		for i, ru := range sigma.Rules() {
			if off[i] || out.Has(ru.RHS()) {
				continue
			}
			if out.ContainsSet(ru.PremiseSet()) {
				out.Add(ru.RHS())
				changed = true
			}
		}
	}
	return out
}

// Suggest is procedure Suggest of Fig. 6 (the S of suggest.Deriver.Suggest)
// on the naive fixpoint closure: one full closure per candidate attribute
// per greedy round, over the rules of Σ_t[Z] that t's current values
// ground in Dm — the least fixpoint of the grounding, every probe decided
// by the scan.
func Suggest(sigma *rule.Set, dm *master.Data, t relation.Tuple, zSet relation.AttrSet) []int {
	kept := ApplicableRules(sigma, dm, t, zSet).Rules()
	likely := make([]bool, len(kept))
	var judged relation.AttrSet
	for p := range t {
		judged.Add(p)
	}
	refined := rule.MustNewSet(sigma.Schema(), dm.Schema())
	for changed := true; changed; {
		changed = false
		for i, ru := range kept {
			if likely[i] || !MasterCompatible(dm, ru, t, judged) {
				continue
			}
			likely[i] = true
			judged.Remove(ru.RHS())
			refined.Add(ru)
			changed = true
		}
	}
	// Every refined rule was found likely, so none is masked.
	off := make([]bool, refined.Len())
	arity := sigma.Schema().Arity()

	cur := zSet
	var s relation.AttrSet
	for StructuralClosure(refined, off, cur).Len() < arity {
		bestAttr, bestGain := -1, -1
		for a := 0; a < arity; a++ {
			if cur.Has(a) {
				continue
			}
			trial := cur
			trial.Add(a)
			gain := StructuralClosure(refined, off, trial).Len()
			if gain > bestGain {
				bestGain, bestAttr = gain, a
			}
		}
		if bestAttr < 0 {
			break
		}
		cur.Add(bestAttr)
		s.Add(bestAttr)
	}

	for _, a := range s.Positions() {
		trialS := s
		trialS.Remove(a)
		trial := zSet.Union(trialS)
		if StructuralClosure(refined, off, trial).Len() == arity {
			s = trialS
		}
	}
	return s.Positions()
}

// GrowAndMinimize is the region growth of suggest.Deriver.CompCRegions on
// the naive closure: grow zSet greedily until the structural closure
// under the rules Dm supports covers R, then reverse-delete every
// attribute outside Σ's free set whose removal keeps it covered. nil when
// coverage is unreachable.
func GrowAndMinimize(sigma *rule.Set, dm *master.Data, zSet relation.AttrSet) []int {
	off := make([]bool, sigma.Len())
	for i, ru := range sigma.Rules() {
		off[i] = !MasterSupports(dm, ru)
	}
	arity := sigma.Schema().Arity()
	cur := zSet
	free := sigma.FreeAttrs()

	for StructuralClosure(sigma, off, cur).Len() < arity {
		bestAttr, bestGain := -1, -1
		for a := 0; a < arity; a++ {
			if cur.Has(a) {
				continue
			}
			trial := cur
			trial.Add(a)
			gain := StructuralClosure(sigma, off, trial).Len()
			if gain > bestGain {
				bestGain, bestAttr = gain, a
			}
		}
		if bestAttr < 0 {
			return nil
		}
		before := StructuralClosure(sigma, off, cur).Len()
		cur.Add(bestAttr)
		if bestGain <= before {
			return nil
		}
	}

	for _, a := range cur.Positions() {
		if free.Has(a) {
			continue
		}
		trial := cur
		trial.Remove(a)
		if StructuralClosure(sigma, off, trial).Len() == arity {
			cur = trial
		}
	}
	return cur.Positions()
}
