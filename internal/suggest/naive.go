package suggest

import (
	"sort"

	"repro/internal/pattern"
	"repro/internal/relation"
	"repro/internal/rule"
)

// This file keeps the pre-compilation implementations of the §5 paths as
// reference oracles: they mirror the production methods exactly, minus
// the compiled closure engine and the master's one-column indexes. The
// property tests assert byte-identical outputs between each pair on
// randomized (Σ, Dm); the compiled-vs-naive benchmarks in bench_test.go
// measure the gap. Do not call these from production code.

// ApplicableRulesNaive is ApplicableRules with conditions (a)–(c) spelled
// out here, (c) decided by the O(|Dm|) scan instead of the smallest-bucket
// walk.
func (d *Deriver) ApplicableRulesNaive(t relation.Tuple, zSet relation.AttrSet) *rule.Set {
	d = d.Pin()
	out := rule.MustNewSet(d.sigma.Schema(), d.dm.Schema())
	for _, ru := range d.sigma.Rules() {
		if zSet.Has(ru.RHS()) {
			continue // (a)
		}
		if !patternAccepts(ru, t, zSet) {
			continue // (b)
		}
		if !d.masterCompatibleScan(ru, t, zSet) {
			continue // (c)
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

// masterCompatibleScan checks condition (c) the naive way: a full-key
// index probe when X ⊆ Z, otherwise a scan over Dm for a tuple agreeing
// on the validated part and pattern-compatible on the rest. Oracle for
// master.CompatibleExists.
func (d *Deriver) masterCompatibleScan(ru *rule.Rule, t relation.Tuple, zSet relation.AttrSet) bool {
	x, xm := ru.LHSRef(), ru.LHSMRef()
	if zSet.HasAll(x) {
		for _, id := range d.dm.MatchIDs(ru, t) {
			if patternCompatibleMaster(ru, d.dm.Tuple(id)) {
				return true
			}
		}
		return false
	}
	tp := ru.Pattern()
	for id := range d.dm.Len() {
		ok := true
		for i := range x {
			if zSet.Has(x[i]) {
				if !t[x[i]].Equal(d.dm.Cell(id, xm[i])) {
					ok = false
					break
				}
			}
			if cell, has := tp.CellFor(x[i]); has && !cell.Matches(d.dm.Cell(id, xm[i])) {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// patternCompatibleMaster checks tm[λϕ(Xp ∩ X)] ≈ tp[Xp ∩ X].
func patternCompatibleMaster(ru *rule.Rule, tm relation.Tuple) bool {
	x, xm := ru.LHSRef(), ru.LHSMRef()
	tp := ru.Pattern()
	for i := range x {
		if cell, has := tp.CellFor(x[i]); has && !cell.Matches(tm[xm[i]]) {
			return false
		}
	}
	return true
}

// SuggestNaive is Suggest running on the naive fixpoint closure: one full
// O(|Σ|²) closure per candidate attribute per greedy round, over the rules
// of Σ_t[Z] that t's current values ground in Dm — groundedMask's least
// fixpoint, every probe decided by the scan.
func (d *Deriver) SuggestNaive(t relation.Tuple, zSet relation.AttrSet) Suggestion {
	d = d.Pin()
	kept := d.ApplicableRulesNaive(t, zSet).Rules()
	likely := make([]bool, len(kept))
	var judged relation.AttrSet
	for p := range t {
		judged.Add(p)
	}
	refined := rule.MustNewSet(d.sigma.Schema(), d.dm.Schema())
	for changed := true; changed; {
		changed = false
		for i, ru := range kept {
			if likely[i] || !d.masterCompatibleScan(ru, t, judged) {
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
	arity := d.sigma.Schema().Arity()

	cur := zSet.Clone()
	var s relation.AttrSet
	for structuralClosure(refined, off, cur).Len() < arity {
		bestAttr, bestGain := -1, -1
		for a := 0; a < arity; a++ {
			if cur.Has(a) {
				continue
			}
			trial := cur.Clone()
			trial.Add(a)
			gain := structuralClosure(refined, off, trial).Len()
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
		trialS := s.Clone()
		trialS.Remove(a)
		trial := zSet.Union(trialS)
		if structuralClosure(refined, off, trial).Len() == arity {
			s = trialS
		}
	}
	return Suggestion{S: s.Positions()}
}

// CompCRegionsNaive is CompCRegions with region growth running on the
// naive fixpoint closure.
func (d *Deriver) CompCRegionsNaive() []Candidate {
	d = d.Pin()
	free := d.sigma.FreeAttrs()
	seedExtras := d.sigma.LHS().Union(d.sigma.PatternAttrs()).Positions()
	seen := map[string]bool{}
	var out []Candidate
	tryZ := func(zSet relation.AttrSet) {
		z := d.growAndMinimizeNaive(zSet)
		if z == nil {
			return
		}
		key := relation.NewAttrSet(z...).Key()
		if seen[key] {
			return
		}
		seen[key] = true
		cand := d.score(z)
		if cand.Support > 0 {
			out = append(out, cand)
		}
	}
	tryZ(free.Clone())
	for _, a := range seedExtras {
		s := free.Clone()
		s.Add(a)
		tryZ(s)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Quality > out[j].Quality })
	return out
}

// growAndMinimizeNaive is growAndMinimize on the naive fixpoint closure.
func (d *Deriver) growAndMinimizeNaive(zSet relation.AttrSet) []int {
	arity := d.sigma.Schema().Arity()
	cur := zSet.Clone()
	free := d.sigma.FreeAttrs()

	for structuralClosure(d.sigma, d.off, cur).Len() < arity {
		bestAttr, bestGain := -1, -1
		for a := 0; a < arity; a++ {
			if cur.Has(a) {
				continue
			}
			trial := cur.Clone()
			trial.Add(a)
			gain := structuralClosure(d.sigma, d.off, trial).Len()
			if gain > bestGain {
				bestGain, bestAttr = gain, a
			}
		}
		if bestAttr < 0 {
			return nil
		}
		before := structuralClosure(d.sigma, d.off, cur).Len()
		cur.Add(bestAttr)
		if bestGain <= before {
			return nil
		}
	}

	for _, a := range cur.Positions() {
		if free.Has(a) {
			continue
		}
		trial := cur.Clone()
		trial.Remove(a)
		if structuralClosure(d.sigma, d.off, trial).Len() == arity {
			cur = trial
		}
	}
	return cur.Positions()
}
