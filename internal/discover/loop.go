package discover

// The discover→fix→re-discover bootstrap loop. A deployment with master
// data but no hand-written Σ mines weighted dependencies from the dirty
// master, majority-repairs the cells that violate them (certainty-first:
// only cells whose lhs group has an overwhelming rhs majority move, and
// cells two dependencies disagree about are left alone), then re-mines on
// the cleaned master — each round the evidence gets cleaner, confidences
// rise, and the loop stops at a fixpoint (no cell repaired) or after
// MaxRounds. The final mined Σ carries per-rule confidence weights that
// Suggest uses to rank competing suggestions.

import (
	"fmt"

	"repro/internal/master"
	"repro/internal/relation"
	"repro/internal/rule"
)

// LoopOptions tunes the bootstrap loop. The embedded Options tune each
// round's mining; MinConfidence defaults to 0.9 here (mining from dirty
// data is the loop's whole point), not the exact-mining 1.
type LoopOptions struct {
	Options
	// MaxRounds bounds the mine→repair rounds (default 3). One extra
	// mining pass always runs after the last repair so the returned
	// dependencies reflect the cleaned master.
	MaxRounds int
	// RepairMajority is the fraction of an lhs group that must already
	// agree on the rhs value before the disagreeing minority cells are
	// rewritten to it (default 0.8). Below it the group is considered
	// genuinely ambiguous and left untouched.
	RepairMajority float64
}

func (o LoopOptions) withDefaults() LoopOptions {
	if o.MaxRounds <= 0 {
		o.MaxRounds = 3
	}
	if o.RepairMajority <= 0 || o.RepairMajority > 1 {
		o.RepairMajority = 0.8
	}
	if o.MinConfidence <= 0 {
		o.MinConfidence = 0.9
	}
	o.Options = o.Options.withDefaults()
	return o
}

// RoundStats records one mine→repair round.
type RoundStats struct {
	Round          int     // 1-based
	Deps           int     // dependencies mined this round
	CellsRepaired  int     // master cells rewritten to their group majority
	MeanConfidence float64 // mean confidence of this round's dependencies
}

// LoopResult is the outcome of the bootstrap loop.
type LoopResult struct {
	// Rules is the mined Σ over the cleaned master, named "m<N>" in
	// discovery order, each carrying its measured confidence weight.
	Rules *rule.Set
	// Deps are the final dependencies behind Rules.
	Deps []Candidate
	// Cleaned is the repaired copy of the input master relation (the
	// input itself is never modified).
	Cleaned *relation.Relation
	// Rounds records each mine→repair round in order.
	Rounds []RoundStats
}

// Loop runs the self-bootstrapping discovery loop over (r, masterRel):
// mine weighted dependencies, majority-repair violating cells, re-mine,
// until a fixpoint or MaxRounds. Deterministic for every worker and
// shard count, like the miner itself.
func Loop(r *relation.Schema, masterRel *relation.Relation, opts LoopOptions) (*LoopResult, error) {
	rm := masterRel.Schema()
	if r.Arity() != rm.Arity() {
		return nil, fmt.Errorf("discover: input schema %s and master schema %s must align positionally", r, rm)
	}
	opts = opts.withDefaults()
	res := &LoopResult{Cleaned: masterRel.Clone()}
	if masterRel.Len() == 0 {
		set, err := rulesFromCandidates(r, rm, nil)
		if err != nil {
			return nil, err
		}
		res.Rules = set
		return res, nil
	}
	for round := 1; ; round++ {
		m := newMiner(master.New(res.Cleaned))
		res.Deps = m.dependencies(opts.Options)
		if round > opts.MaxRounds {
			break // final re-mine after the last permitted repair
		}
		repaired := m.repair(res.Cleaned, res.Deps, opts)
		res.Rounds = append(res.Rounds, RoundStats{
			Round: round, Deps: len(res.Deps),
			CellsRepaired:  repaired,
			MeanConfidence: meanConfidence(res.Deps),
		})
		if repaired == 0 {
			break // fixpoint: Deps already reflect the final relation
		}
	}
	set, err := rulesFromCandidates(r, rm, res.Deps)
	if err != nil {
		return nil, err
	}
	res.Rules = set
	return res, nil
}

func meanConfidence(deps []Candidate) float64 {
	if len(deps) == 0 {
		return 0
	}
	sum := 0.0
	for _, c := range deps {
		sum += c.Confidence
	}
	return sum / float64(len(deps))
}

// repair rewrites, for every mined dependency with violations, the
// minority rhs cells of each lhs group to the group's majority value —
// but only when the majority is overwhelming (≥ RepairMajority of the
// group, and at least 2 tuples), and never when two dependencies disagree
// about a cell (the write is dropped, certainty first). All writes are
// planned against the pre-repair snapshot the miner decoded, then applied
// at once; returns the number of cells changed.
func (m *miner) repair(rel *relation.Relation, deps []Candidate, opts LoopOptions) int {
	vals := m.dm.SymbolValues()
	sc := newScratch(m.nsyms)
	type cellKey struct{ row, col int }
	type write struct {
		row, col int
		val      relation.Value
		conflict bool
	}
	planned := map[cellKey]*write{}
	var order []*write
	for _, c := range deps {
		if c.Violations == 0 {
			continue
		}
		p := m.partitionOf(c.LHS, sc)
		colB := m.cols[c.RHS]
		for _, class := range p.classes {
			sc.bump()
			var bestVid uint32
			var bestCnt int32
			for _, id := range class {
				v := colB[id]
				if sc.stamp[v] != sc.epoch {
					sc.stamp[v] = sc.epoch
					sc.count[v] = 0
				}
				sc.count[v]++
				if sc.count[v] > bestCnt {
					bestCnt = sc.count[v]
					bestVid = v
				}
			}
			if int(bestCnt) == len(class) {
				continue // clean group
			}
			if bestCnt < 2 || float64(bestCnt) < opts.RepairMajority*float64(len(class)) {
				continue // no overwhelming majority: genuinely ambiguous
			}
			maj := vals[bestVid]
			for _, id := range class {
				if colB[id] == bestVid {
					continue
				}
				k := cellKey{int(id), c.RHS}
				if w, ok := planned[k]; ok {
					if !w.val.Equal(maj) {
						w.conflict = true
					}
					continue
				}
				w := &write{row: int(id), col: c.RHS, val: maj}
				planned[k] = w
				order = append(order, w)
			}
		}
	}
	fixed := 0
	for _, w := range order {
		if w.conflict {
			continue
		}
		rel.Tuple(w.row)[w.col] = w.val
		fixed++
	}
	return fixed
}
