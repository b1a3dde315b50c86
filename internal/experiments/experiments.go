// Package experiments drives the evaluation of §6: one function per table
// and figure of the paper, each regenerating the corresponding rows or
// series on the synthetic HOSP/DBLP substrate (see DESIGN.md for the
// experiment index and EXPERIMENTS.md for measured-vs-paper results).
package experiments

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/datagen"
	"repro/internal/monitor"
	"repro/internal/parallel"
)

// Params selects a dataset configuration. Zero fields take defaults that
// mirror the paper's defaults scaled to a quick run: d% = 30, n% = 20,
// |Dm| = 10K tuples in the paper, scaled by Scale here.
type Params struct {
	Dataset    string // "hosp" or "dblp"
	Seed       int64
	MasterSize int
	Tuples     int
	DupRate    float64
	NoiseRate  float64
	MaxK       int // interaction rounds to report (hosp: 4, dblp: 3)
	// Workers fixes tuples on that many internal/parallel workers (≤ 0
	// selects GOMAXPROCS). Accuracy sweeps are embarrassingly parallel; the
	// Fig-12 latency experiments ignore this and always run sequentially so
	// that concurrent runs cannot contaminate each other's timings.
	Workers int
	// MasterSnapshot, when non-empty, names a master arena image
	// (datagen.Config.MasterArena): an existing image replaces the master
	// index build, a missing one is saved after building, so repeated runs
	// over the same generated master cold-start by page-in. Fix results
	// are byte-identical either way — the CI scale smoke diffs a rebuilt
	// run against an arena-loaded one to pin exactly that.
	MasterSnapshot string
	// UpdateBatches evolves the generated master through that many
	// deterministic delta batches (datagen.UpdateStorm, seeded from Seed)
	// before fixing — the "master data changes under the monitor"
	// workload. Only FixedOutputs honors it.
	UpdateBatches int
	// WALDir, when non-empty, routes the update batches through the
	// durable master lineage rooted there (master.DurableVersioned):
	// every batch is logged and checkpointed exactly as in production.
	// Fix outputs are byte-identical with or without it for a fresh
	// directory — the CI scale smoke diffs exactly that — since the WAL
	// only adds durability, never changes delta semantics. A directory
	// holding an earlier lineage is recovered first, so the storm then
	// extends that lineage instead of the freshly generated master.
	WALDir string
}

// WithDefaults fills unset fields with the §6 defaults.
func (p Params) WithDefaults() Params {
	if p.Dataset == "" {
		p.Dataset = "hosp"
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	if p.MasterSize == 0 {
		p.MasterSize = 2000
	}
	if p.Tuples == 0 {
		p.Tuples = 500
	}
	if p.DupRate == 0 {
		p.DupRate = 0.30
	}
	if p.NoiseRate == 0 {
		p.NoiseRate = 0.20
	}
	if p.MaxK == 0 {
		if p.Dataset == "dblp" {
			p.MaxK = 3
		} else {
			p.MaxK = 4
		}
	}
	return p
}

// generate builds the dataset for the parameters.
func generate(p Params) (*datagen.Dataset, error) {
	cfg := datagen.Config{
		Seed:        p.Seed,
		MasterSize:  p.MasterSize,
		Tuples:      p.Tuples,
		DupRate:     p.DupRate,
		NoiseRate:   p.NoiseRate,
		MasterArena: p.MasterSnapshot,
	}
	switch p.Dataset {
	case "hosp":
		return datagen.Hosp(cfg)
	case "dblp":
		return datagen.Dblp(cfg)
	default:
		return nil, fmt.Errorf("experiments: unknown dataset %q", p.Dataset)
	}
}

// RunStats aggregates a full monitoring run over a dataset.
type RunStats struct {
	TupleRecall []float64 // recall_t after k = 1..MaxK rounds
	AttrRecall  []float64 // recall_a after k rounds (rule fixes only)
	F1          []float64 // F-measure after k rounds
	AvgLatency  time.Duration
	TotalRounds int
	CacheHits   int
	CacheMisses int
}

// runMonitor fixes every input tuple with the simulated user and scores
// the per-round metrics of §6 on workers goroutines (≤ 0 selects
// GOMAXPROCS). The accuracy metrics do not depend on the worker count
// (fixes are deterministic without the BDD cache), but AvgLatency is
// wall-clock over all workers, so latency experiments must pass 1.
func runMonitor(ds *datagen.Dataset, mcfg monitor.Config, maxK, workers int) (RunStats, error) {
	m, err := monitor.New(ds.Sigma, ds.Master, mcfg)
	if err != nil {
		return RunStats{}, err
	}
	return runWith(m, ds, maxK, workers)
}

// tupleScore is one tuple's outcome after k = 1..maxK rounds: each job
// keeps only these counts, so a large sweep never holds every tuple's
// per-round snapshots at once.
type tupleScore struct {
	rounds int
	tuple  []tupleOutcome
	cell   []cellOutcome
}

func runWith(m *monitor.Monitor, ds *datagen.Dataset, maxK, workers int) (RunStats, error) {
	ctx := context.TODO()
	start := time.Now()
	scores, err := parallel.MapCtx(ctx, len(ds.Inputs), workers, func(i int) (tupleScore, error) {
		res, err := m.Fix(ctx, ds.Inputs[i], monitor.SimulatedUser{Truth: ds.Truths[i]})
		if err != nil {
			return tupleScore{}, fmt.Errorf("experiments: fixing tuple %d: %w", i, err)
		}
		s := tupleScore{rounds: res.Rounds, tuple: make([]tupleOutcome, maxK), cell: make([]cellOutcome, maxK)}
		for k := 1; k <= maxK; k++ {
			state := stateAtRound(res, k)
			s.tuple[k-1] = compareTuple(ds.Inputs[i], ds.Truths[i], state.Tuple)
			credited := state.AutoFixed
			s.cell[k-1] = compareCells(ds.Inputs[i], ds.Truths[i], state.Tuple, &credited)
		}
		return s, nil
	})
	elapsed := time.Since(start)
	if err != nil {
		return RunStats{}, err
	}

	var stats RunStats
	for _, s := range scores {
		stats.TotalRounds += s.rounds
	}
	if stats.TotalRounds > 0 {
		stats.AvgLatency = elapsed / time.Duration(stats.TotalRounds)
	}
	for k := range maxK {
		var tuple tupleOutcome
		var cell cellOutcome
		for _, s := range scores {
			tuple.Add(s.tuple[k])
			cell.Add(s.cell[k])
		}
		stats.TupleRecall = append(stats.TupleRecall, tuple.Recall())
		stats.AttrRecall = append(stats.AttrRecall, cell.Recall())
		stats.F1 = append(stats.F1, cell.F1())
	}
	stats.CacheHits, stats.CacheMisses = m.CacheStats()
	return stats, nil
}

// stateAtRound returns the snapshot after min(k, rounds) rounds.
func stateAtRound(res monitor.Result, k int) monitor.RoundStat {
	if len(res.PerRound) == 0 {
		return monitor.RoundStat{
			Tuple:     res.Tuple,
			AutoFixed: res.AutoFixed,
		}
	}
	if k > len(res.PerRound) {
		k = len(res.PerRound)
	}
	return res.PerRound[k-1]
}

// Table is a printable experiment artifact.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		var b strings.Builder
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
	}
	line(t.Columns)
	for _, row := range t.Rows {
		line(row)
	}
	fmt.Fprintln(w)
}

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
