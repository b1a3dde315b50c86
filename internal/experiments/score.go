// The evaluation measures of §6, exactly as the paper defines them:
//
//	recall_t    = #corrected tuples   / #erroneous tuples
//	recall_a    = #corrected attrs    / #erroneous attrs
//	precision_a = #corrected attrs    / #changed attrs
//	F-measure   = 2·(recall_a·precision_a)/(recall_a+precision_a)
//
// where corrected attributes exclude those fixed by the users (only
// rule-made corrections count toward recall_a).

package experiments

import "repro/internal/relation"

// cellOutcome aggregates attribute-level counts for one or more tuples.
type cellOutcome struct {
	Erroneous int // input cell differed from truth
	Changed   int // credited writer changed the cell away from the input
	Corrected int // changed cell that was erroneous and now equals truth
}

// Add accumulates another outcome.
func (o *cellOutcome) Add(p cellOutcome) {
	o.Erroneous += p.Erroneous
	o.Changed += p.Changed
	o.Corrected += p.Corrected
}

// Precision returns corrected/changed (1 when nothing changed: no wrong
// changes were made).
func (o cellOutcome) Precision() float64 {
	if o.Changed == 0 {
		return 1
	}
	return float64(o.Corrected) / float64(o.Changed)
}

// Recall returns corrected/erroneous (1 when nothing was erroneous).
func (o cellOutcome) Recall() float64 {
	if o.Erroneous == 0 {
		return 1
	}
	return float64(o.Corrected) / float64(o.Erroneous)
}

// F1 returns the harmonic mean of precision and recall.
func (o cellOutcome) F1() float64 {
	p, r := o.Precision(), o.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// compareCells scores one tuple: input is the dirty tuple, truth the
// ground truth, result the tuple after fixing. credited restricts which
// positions count as Changed/Corrected — pass the rule-fixed attribute
// set to honour the paper's "not counting user fixes" convention, or nil
// to credit every position (the IncRep accounting, which has no user).
func compareCells(input, truth, result relation.Tuple, credited *relation.AttrSet) cellOutcome {
	var o cellOutcome
	for i := range input {
		err := !input[i].Equal(truth[i])
		if err {
			o.Erroneous++
		}
		if credited != nil && !credited.Has(i) {
			continue
		}
		if !result[i].Equal(input[i]) {
			o.Changed++
			if err && result[i].Equal(truth[i]) {
				o.Corrected++
			}
		}
	}
	return o
}

// tupleOutcome aggregates tuple-level counts.
type tupleOutcome struct {
	Erroneous int // tuples with at least one wrong cell
	Corrected int // erroneous tuples whose result equals the truth
}

// Add accumulates another outcome.
func (o *tupleOutcome) Add(p tupleOutcome) {
	o.Erroneous += p.Erroneous
	o.Corrected += p.Corrected
}

// Recall returns corrected/erroneous tuples (1 when none were erroneous).
func (o tupleOutcome) Recall() float64 {
	if o.Erroneous == 0 {
		return 1
	}
	return float64(o.Corrected) / float64(o.Erroneous)
}

// compareTuple scores one tuple at the tuple level.
func compareTuple(input, truth, result relation.Tuple) tupleOutcome {
	var o tupleOutcome
	if !input.Equal(truth) {
		o.Erroneous = 1
		if result.Equal(truth) {
			o.Corrected = 1
		}
	}
	return o
}
