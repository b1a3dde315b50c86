package experiments

import (
	"fmt"

	"repro/internal/datagen"
	"repro/internal/experiments/cfd"
	"repro/internal/experiments/increp"
	"repro/internal/monitor"
	"repro/internal/parallel"
	"repro/internal/suggest"
)

// Exp1RegionSizes reproduces the Exp-1(1) table: the number of attributes
// in the certain region found by CompCRegion vs the greedy GRegion
// (paper: hosp 2 vs 4, dblp 5 vs 9).
func Exp1RegionSizes(seed int64, masterSize int) (*Table, error) {
	t := &Table{
		Title:   "Exp-1(1): certain-region size, CompCRegion vs GRegion",
		Columns: []string{"dataset", "CompCRegion", "GRegion"},
	}
	for _, name := range []string{"hosp", "dblp"} {
		ds, err := generate(Params{Dataset: name, Seed: seed, MasterSize: masterSize, Tuples: 1}.WithDefaults())
		if err != nil {
			return nil, err
		}
		d := suggest.NewDeriver(ds.Sigma, ds.Master)
		cands := d.CompCRegions()
		if len(cands) == 0 {
			return nil, fmt.Errorf("experiments: no region for %s", name)
		}
		g := d.GRegion()
		t.Rows = append(t.Rows, []string{name,
			fmt.Sprintf("%d", len(cands[0].Z)),
			fmt.Sprintf("%d", len(g.Z))})
	}
	return t, nil
}

// Exp2InitialSuggestion reproduces the Exp-1(2) table: F-measure when the
// initial suggestion is the highest-quality region (CRHQ) vs the
// median-quality one (CRMQ). Paper: hosp 0.74 vs 0.70, dblp 0.79 vs 0.69.
func Exp2InitialSuggestion(p Params) (*Table, error) {
	p = p.WithDefaults()
	ds, err := generate(p)
	if err != nil {
		return nil, err
	}
	m, err := monitor.New(ds.Sigma, ds.Master, monitor.Config{})
	if err != nil {
		return nil, err
	}
	// The paper picks the median-quality region; our candidate pools are
	// small (a handful of regions vs the paper's larger inventory), so
	// the lowest-ranked candidate plays the below-best role.
	lower := len(m.Regions()) - 1
	hq, err := runMonitor(ds, monitor.Config{InitialRegion: 0}, p.MaxK, p.Workers)
	if err != nil {
		return nil, err
	}
	mq, err := runMonitor(ds, monitor.Config{InitialRegion: lower}, p.MaxK, p.Workers)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   fmt.Sprintf("Exp-1(2): initial suggestion quality (%s)", p.Dataset),
		Columns: []string{"dataset", "F-measure CRHQ", "F-measure CRMQ"},
		Rows: [][]string{{p.Dataset,
			f2(hq.F1[len(hq.F1)-1]),
			f2(mq.F1[len(mq.F1)-1])}},
	}
	return t, nil
}

// Fig9 reproduces Fig. 9a/9b: tuple-level and attribute-level recall as a
// function of the number of interaction rounds.
func Fig9(p Params) (*Table, error) {
	p = p.WithDefaults()
	ds, err := generate(p)
	if err != nil {
		return nil, err
	}
	stats, err := runMonitor(ds, monitor.Config{}, p.MaxK, p.Workers)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   fmt.Sprintf("Fig 9: recall vs #interactions (%s, d%%=%.0f, n%%=%.0f, |Dm|=%d)", p.Dataset, p.DupRate*100, p.NoiseRate*100, p.MasterSize),
		Columns: []string{"k", "recall_t (Fig 9a)", "recall_a (Fig 9b)"},
	}
	for k := 1; k <= p.MaxK; k++ {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", k), f2(stats.TupleRecall[k-1]), f2(stats.AttrRecall[k-1])})
	}
	return t, nil
}

// Fig10Sweep reproduces one panel of Fig. 10: tuple-level recall after
// k = 1..MaxK rounds while one parameter sweeps. which selects the
// swept parameter: "dup" (Fig 10a/d), "master" (10b/e), "noise" (10c/f).
func Fig10Sweep(p Params, which string, values []float64) (*Table, error) {
	p = p.WithDefaults()
	t := &Table{Title: fmt.Sprintf("Fig 10 (%s): recall_t sweeping %s", p.Dataset, which)}
	t.Columns = []string{which}
	for k := 1; k <= p.MaxK; k++ {
		t.Columns = append(t.Columns, fmt.Sprintf("k=%d", k))
	}
	rows, err := parallel.Map(len(values), 0, func(i int) ([]string, error) {
		q := applySweep(p, which, values[i])
		ds, err := generate(q)
		if err != nil {
			return nil, err
		}
		stats, err := runMonitor(ds, monitor.Config{}, q.MaxK, q.Workers)
		if err != nil {
			return nil, err
		}
		row := []string{sweepLabel(which, values[i])}
		for k := 1; k <= q.MaxK; k++ {
			row = append(row, f2(stats.TupleRecall[k-1]))
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	return t, nil
}

// Fig11Sweep reproduces one panel of Fig. 11: attribute-level F-measure
// after k rounds plus the IncRep baseline, while one parameter sweeps.
func Fig11Sweep(p Params, which string, values []float64) (*Table, error) {
	p = p.WithDefaults()
	t := &Table{Title: fmt.Sprintf("Fig 11 (%s): F-measure sweeping %s (IncRep baseline)", p.Dataset, which)}
	t.Columns = []string{which}
	for k := 1; k <= p.MaxK; k++ {
		t.Columns = append(t.Columns, fmt.Sprintf("k=%d", k))
	}
	t.Columns = append(t.Columns, "IncRep")
	rows, err := parallel.Map(len(values), 0, func(i int) ([]string, error) {
		q := applySweep(p, which, values[i])
		ds, err := generate(q)
		if err != nil {
			return nil, err
		}
		stats, err := runMonitor(ds, monitor.Config{}, q.MaxK, q.Workers)
		if err != nil {
			return nil, err
		}
		incF1, err := runIncRep(ds)
		if err != nil {
			return nil, err
		}
		row := []string{sweepLabel(which, values[i])}
		for k := 1; k <= q.MaxK; k++ {
			row = append(row, f2(stats.F1[k-1]))
		}
		return append(row, f2(incF1)), nil
	})
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	return t, nil
}

// runIncRep repairs the dirty inputs with the CFD-based baseline and
// returns its attribute-level F-measure (its precision is not 1: it may
// change correct cells). Attribute weights follow [14]'s confidence
// model: identifier-like attributes (those read by rules — lhs and
// pattern attributes) weigh double, so the repairer prefers overwriting
// derived attributes to perturbing keys.
func runIncRep(ds *datagen.Dataset) (float64, error) {
	cfds, err := cfd.FromRules(ds.Sigma, ds.Master)
	if err != nil {
		return 0, err
	}
	weights := make([]float64, ds.Sigma.Schema().Arity())
	keyAttrs := ds.Sigma.LHS().Union(ds.Sigma.PatternAttrs())
	for i := range weights {
		if keyAttrs.Has(i) {
			weights[i] = 2
		} else {
			weights[i] = 1
		}
	}
	rep := increp.New(cfds, increp.Options{Weights: weights})
	var agg cellOutcome
	for i := range ds.Inputs {
		repaired := ds.Inputs[i].Clone()
		rep.RepairTuple(repaired)
		agg.Add(compareCells(ds.Inputs[i], ds.Truths[i], repaired, nil))
	}
	return agg.F1(), nil
}

// Fig12Sweep reproduces one half of Fig. 12: average per-round latency,
// CertainFix vs CertainFix+ (the BDD cache), while one parameter sweeps.
// which selects it: "master" varies |Dm| (Fig 12a/b), "tuples" varies |D|
// (12c/d), where CertainFix is flat (tuples are independent) while
// CertainFix+ amortizes suggestions across the stream. Every run is
// sequential: the sweep measures latency.
func Fig12Sweep(p Params, which string, values []float64) (*Table, error) {
	p = p.WithDefaults()
	panel, label := "12a/b", "|Dm|"
	if which == "tuples" {
		panel, label = "12c/d", "|D|"
	}
	t := &Table{
		Title:   fmt.Sprintf("Fig %s (%s): per-round latency vs %s", panel, p.Dataset, label),
		Columns: []string{label, "CertainFix", "CertainFix+", "cache hit rate"},
	}
	for _, v := range values {
		q := applySweep(p, which, v)
		ds, err := generate(q)
		if err != nil {
			return nil, err
		}
		plain, err := runMonitor(ds, monitor.Config{}, q.MaxK, 1)
		if err != nil {
			return nil, err
		}
		plus, err := runMonitor(ds, monitor.Config{UseBDD: true}, q.MaxK, 1)
		if err != nil {
			return nil, err
		}
		hitRate := 0.0
		if h, ms := plus.CacheHits, plus.CacheMisses; h+ms > 0 {
			hitRate = float64(h) / float64(h+ms)
		}
		t.Rows = append(t.Rows, []string{
			sweepLabel(which, v),
			plain.AvgLatency.String(),
			plus.AvgLatency.String(),
			f2(hitRate),
		})
	}
	return t, nil
}

func applySweep(p Params, which string, v float64) Params {
	switch which {
	case "dup":
		p.DupRate = v
	case "noise":
		p.NoiseRate = v
	case "master":
		p.MasterSize = int(v)
	case "tuples":
		p.Tuples = int(v)
	}
	return p
}

func sweepLabel(which string, v float64) string {
	if which == "master" || which == "tuples" {
		return fmt.Sprintf("%d", int(v))
	}
	return fmt.Sprintf("%.0f%%", v*100)
}
