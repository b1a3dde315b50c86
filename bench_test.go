// Benchmarks regenerating every table and figure of the paper's
// evaluation (§6) plus ablations of the design choices called out in
// DESIGN.md. Run with:
//
//	go test -bench=. -benchmem
//
// The benches run laptop-scale configurations (hundreds of tuples, |Dm|
// in the hundreds); cmd/expdriver runs the same experiments at larger
// scale with readable table output.
package repro

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"repro/internal/analysis"
	"repro/internal/datagen"
	"repro/internal/experiments"
	"repro/internal/fix"
	"repro/internal/master"
	"repro/internal/monitor"
	"repro/internal/oracle"
	"repro/internal/paperex"
	"repro/internal/pattern"
	"repro/internal/relation"
	"repro/internal/rule"
	"repro/internal/suggest"
)

const (
	benchMaster = 600
	benchTuples = 150
)

func benchParams(dataset string) experiments.Params {
	return experiments.Params{Dataset: dataset, Seed: 1, MasterSize: benchMaster, Tuples: benchTuples}
}

// mustHosp generates the HOSP dataset the probe, closure and suggestion
// benchmarks share, its master one shard at this size — the configuration
// benchgate.json records them in; their measured loops are
// single-goroutine, so GOMAXPROCS does not enter.
func mustHosp(b *testing.B, tuples int) *datagen.Dataset {
	b.Helper()
	ds, err := datagen.Hosp(datagen.Config{
		Seed: 1, MasterSize: benchMaster, Tuples: tuples, DupRate: 0.3, NoiseRate: 0.2,
	})
	if err != nil {
		b.Fatal(err)
	}
	return ds
}

// BenchmarkExp1RegionSize regenerates the Exp-1(1) table: certain-region
// derivation by CompCRegion and GRegion on both datasets.
func BenchmarkExp1RegionSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiments.Exp1RegionSizes(1, benchMaster)
		if err != nil {
			b.Fatal(err)
		}
		if len(tab.Rows) != 2 {
			b.Fatal("bad table")
		}
	}
}

// BenchmarkExp2InitialSuggestion regenerates the Exp-1(2) table (CRHQ vs
// CRMQ F-measure) on hosp.
func BenchmarkExp2InitialSuggestion(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Exp2InitialSuggestion(benchParams("hosp")); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9aRecallTuple regenerates Fig. 9a (tuple-level recall per
// interaction round) and reports the k=1 and final recalls as metrics.
func BenchmarkFig9aRecallTuple(b *testing.B) {
	for _, dataset := range []string{"hosp", "dblp"} {
		b.Run(dataset, func(b *testing.B) {
			var tab *experiments.Table
			var err error
			for i := 0; i < b.N; i++ {
				tab, err = experiments.Fig9(benchParams(dataset))
				if err != nil {
					b.Fatal(err)
				}
			}
			reportCell(b, tab, 0, 1, "recall_t_k1")
			reportCell(b, tab, len(tab.Rows)-1, 1, "recall_t_final")
		})
	}
}

// BenchmarkFig9bRecallAttr regenerates Fig. 9b (attribute-level recall).
func BenchmarkFig9bRecallAttr(b *testing.B) {
	for _, dataset := range []string{"hosp", "dblp"} {
		b.Run(dataset, func(b *testing.B) {
			var tab *experiments.Table
			var err error
			for i := 0; i < b.N; i++ {
				tab, err = experiments.Fig9(benchParams(dataset))
				if err != nil {
					b.Fatal(err)
				}
			}
			reportCell(b, tab, 0, 2, "recall_a_k1")
			reportCell(b, tab, len(tab.Rows)-1, 2, "recall_a_final")
		})
	}
}

// BenchmarkFig10DupRate regenerates Fig. 10a/d (recall_t vs d%).
func BenchmarkFig10DupRate(b *testing.B) {
	benchFig10(b, "dup", []float64{0.1, 0.3, 0.5})
}

// BenchmarkFig10MasterSize regenerates Fig. 10b/e (recall_t vs |Dm|).
func BenchmarkFig10MasterSize(b *testing.B) {
	benchFig10(b, "master", []float64{benchMaster / 2, benchMaster, benchMaster * 2})
}

// BenchmarkFig10NoiseRate regenerates Fig. 10c/f (recall_t vs n%).
func BenchmarkFig10NoiseRate(b *testing.B) {
	benchFig10(b, "noise", []float64{0.1, 0.3, 0.5})
}

func benchFig10(b *testing.B, which string, values []float64) {
	for _, dataset := range []string{"hosp", "dblp"} {
		b.Run(dataset, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := experiments.Fig10Sweep(benchParams(dataset), which, values); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig11DupRate regenerates Fig. 11a/d (F-measure vs d%, with the
// IncRep baseline).
func BenchmarkFig11DupRate(b *testing.B) {
	benchFig11(b, "dup", []float64{0.1, 0.3, 0.5})
}

// BenchmarkFig11MasterSize regenerates Fig. 11b/e.
func BenchmarkFig11MasterSize(b *testing.B) {
	benchFig11(b, "master", []float64{benchMaster / 2, benchMaster, benchMaster * 2})
}

// BenchmarkFig11NoiseRate regenerates Fig. 11c/f — the IncRep noise
// collapse.
func BenchmarkFig11NoiseRate(b *testing.B) {
	benchFig11(b, "noise", []float64{0.1, 0.3, 0.5})
}

func benchFig11(b *testing.B, which string, values []float64) {
	for _, dataset := range []string{"hosp", "dblp"} {
		b.Run(dataset, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := experiments.Fig11Sweep(benchParams(dataset), which, values); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig12MasterScaling regenerates Fig. 12a/b: per-round latency
// vs |Dm|, CertainFix vs CertainFix+.
func BenchmarkFig12MasterScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig12Sweep(benchParams("hosp"), "master", []float64{benchMaster / 2, benchMaster}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig12StreamScaling regenerates Fig. 12c/d: per-round latency
// vs |D|.
func BenchmarkFig12StreamScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig12Sweep(benchParams("hosp"), "tuples", []float64{50, benchTuples}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationIndexedVsScan measures the master-data hash indexes
// (the "O(1) master probe" TransFix's complexity analysis assumes)
// against a linear scan. The scan is the one an unindexed master would
// make, at the level of interned ids: it looks the probe's key values up
// once per probe and compares them with every tuple's key cells, read out
// of the master (ColumnIDs) before the timer starts.
func BenchmarkAblationIndexedVsScan(b *testing.B) {
	ds := mustHosp(b, 1)
	indexed := ds.Master
	ru := ds.Sigma.Rule(0) // zip → ST
	probe := ds.Master.Tuple(benchMaster / 2).Clone()

	b.Run("indexed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if ids := indexed.MatchIDs(ru, probe); len(ids) == 0 {
				b.Fatal("probe must match")
			}
		}
	})
	b.Run("scan", func(b *testing.B) {
		x, xm := ru.LHS(), ru.LHSM()
		cols := make([][]uint32, len(xm))
		for i, c := range xm {
			cols[i] = indexed.ColumnIDs(c)
		}
		syms := indexed.Symbols()
		key := make([]uint32, len(x))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j, p := range x {
				key[j], _ = syms.ID(probe[p])
			}
			var ids []int
		rows:
			for id := range indexed.Len() {
				for j, col := range cols {
					if col[id] != key[j] {
						continue rows
					}
				}
				ids = append(ids, id)
			}
			if len(ids) == 0 {
				b.Fatal("probe must match")
			}
		}
	})
}

// BenchmarkProbeAlloc pins the tentpole guarantee on a realistic master:
// the indexed probe path (hash + bucket walk + verification) performs zero
// heap allocations per MatchIDs call, hit or miss. TestProbeZeroAlloc in
// internal/master enforces the same property as a hard test.
//
// Two distinct miss shapes are measured: an uninterned probe value (the
// symbol-table early exit) and interned values in a combination absent
// from the master (the full hash fold + empty-bucket path).
func BenchmarkProbeAlloc(b *testing.B) {
	ds := mustHosp(b, 1)
	ru := ds.Sigma.Rule(0)
	hit := ds.Master.Tuple(benchMaster / 2).Clone()
	missUninterned := hit.Clone()
	missUninterned[ru.LHS()[0]] = relation.String("no-such-key")

	// h04 keys on (id, mCode): splice another tuple's mCode into tuple 0
	// to build a probe of interned values whose pair misses.
	ru2 := ruleNamed(b, ds, "h04")
	missInterned := ds.Master.Tuple(0).Clone()
	x, xm := ru2.LHS(), ru2.LHSM()
	found := false
	for k := 1; k < ds.Master.Len() && !found; k++ {
		missInterned[x[1]] = ds.Master.Tuple(k)[xm[1]]
		found = len(ds.Master.MatchIDs(ru2, missInterned)) == 0
	}
	if !found {
		b.Fatal("could not build an interned-miss probe")
	}

	b.Run("hit", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if ids := ds.Master.MatchIDs(ru, hit); len(ids) == 0 {
				b.Fatal("probe must match")
			}
		}
	})
	b.Run("miss-uninterned", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if ids := ds.Master.MatchIDs(ru, missUninterned); len(ids) != 0 {
				b.Fatal("probe must miss")
			}
		}
	})
	b.Run("miss-interned", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if ids := ds.Master.MatchIDs(ru2, missInterned); len(ids) != 0 {
				b.Fatal("probe must miss")
			}
		}
	})
}

func ruleNamed(b *testing.B, ds *datagen.Dataset, name string) *rule.Rule {
	b.Helper()
	for _, ru := range ds.Sigma.Rules() {
		if ru.Name() == name {
			return ru
		}
	}
	b.Fatalf("rule %s not found", name)
	return nil
}

// BenchmarkClosure measures the compiled counter-based closure engine
// (rule.Compiled, one LINCLOSURE pass with reusable scratch) against the
// naive O(|Σ|²) fixpoint it replaced, on the 21-rule hosp set from the
// cascade-rich base {id, mCode}.
func BenchmarkClosure(b *testing.B) {
	ds := mustHosp(b, 1)
	off := make([]bool, ds.Sigma.Len()) // the snapshot's mask, as a Deriver view holds it
	for i, ru := range ds.Sigma.Rules() {
		off[i] = !ds.Master.PatternSupported(ru)
	}
	base := relation.NewAttrSet(ds.Sigma.Schema().MustPosList("id", "mCode")...)
	arity := ds.Sigma.Schema().Arity()

	b.Run("compiled", func(b *testing.B) {
		b.ReportAllocs()
		prog := ds.Sigma.Compile()
		sc := rule.NewClosureScratch()
		for i := 0; i < b.N; i++ {
			if prog.Closure(base, off, sc) != arity {
				b.Fatal("closure must cover R")
			}
		}
	})
	b.Run("naive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if oracle.StructuralClosure(ds.Sigma, off, base).Len() != arity {
				b.Fatal("closure must cover R")
			}
		}
	})
}

// BenchmarkApplicableRules measures Σ_t[Z] derivation with a partially
// validated lhs — the indexed condition (c) ("postings": the row keeps the
// name it was recorded under) against the per-rule Dm scan that made
// per-round latency linear in |Dm| (Fig. 12a/b).
func BenchmarkApplicableRules(b *testing.B) {
	ds := mustHosp(b, benchTuples)
	d := suggest.NewDeriver(ds.Sigma, ds.Master)
	t := ds.Inputs[0]
	// id validates half the (id, mCode) premises: the partial-lhs branch.
	zSet := relation.NewAttrSet(ds.Sigma.Schema().MustPosList("id")...)

	b.Run("postings", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if d.ApplicableRules(t, zSet).Len() == 0 {
				b.Fatal("refined set must not be empty")
			}
		}
	})
	b.Run("scan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if oracle.ApplicableRules(d.Sigma(), d.Master(), t, zSet).Len() == 0 {
				b.Fatal("refined set must not be empty")
			}
		}
	})
}

// BenchmarkSuggest measures procedure Suggest end to end — both engines
// together (compiled closure + master indexes) against the naive pair — on a
// realistic hosp tuple with a partially validated Z.
func BenchmarkSuggest(b *testing.B) {
	ds := mustHosp(b, benchTuples)
	d := suggest.NewDeriver(ds.Sigma, ds.Master)
	t := ds.Inputs[0]
	zSet := relation.NewAttrSet(ds.Sigma.Schema().MustPosList("id")...)

	b.Run("compiled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if s := d.Suggest(t, zSet); len(s.S) == 0 {
				b.Fatal("empty suggestion")
			}
		}
	})
	b.Run("naive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if s := oracle.Suggest(d.Sigma(), d.Master(), t, zSet); len(s) == 0 {
				b.Fatal("empty suggestion")
			}
		}
	})
	// An entity outside the master with the certain region validated: no
	// rule grounds, every grounding probe misses, and the suggestion is
	// every remaining attribute — the round this tuple used to reach one
	// candidate key at a time.
	b.Run("outside", func(b *testing.B) {
		region := d.CompCRegions()[0]
		var all relation.AttrSet
		for p := range ds.Sigma.Schema().Arity() {
			all.Add(p)
		}
		i := slices.IndexFunc(ds.Truths, func(truth relation.Tuple) bool {
			return !slices.ContainsFunc(ds.Sigma.Rules(), func(ru *rule.Rule) bool {
				return ds.Master.CompatibleExists(ru, truth, all)
			})
		})
		if i < 0 {
			b.Fatal("no input outside the master")
		}
		t := ds.Inputs[i].Clone()
		for _, p := range region.Z {
			t[p] = ds.Truths[i][p]
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if s := d.Suggest(t, region.ZSet); len(s.S)+len(region.Z) != len(t) {
				b.Fatalf("suggested %d attributes on top of %d validated, want all %d", len(s.S), len(region.Z), len(t))
			}
		}
	})
}

// BenchmarkFixBatch sweeps the worker count of the concurrent batch
// pipeline over one stream of dirty tuples — the throughput layer on top
// of the zero-allocation probes. b.N counts individual tuple fixes.
func BenchmarkFixBatch(b *testing.B) {
	ds := mustHosp(b, benchTuples)
	m, err := monitor.New(ds.Sigma, ds.Master, monitor.Config{})
	if err != nil {
		b.Fatal(err)
	}
	userFor := func(i int) monitor.User {
		return monitor.SimulatedUser{Truth: ds.Truths[i%len(ds.Truths)]}
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			inputs := make([]relation.Tuple, b.N)
			for i := range inputs {
				inputs[i] = ds.Inputs[i%len(ds.Inputs)]
			}
			b.ResetTimer()
			if _, err := m.FixBatch(context.Background(), inputs, userFor, workers); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkAblationBDD measures Suggest+ (BDD-cached suggestions) against
// plain Suggest over a stream of tuples — the design choice behind
// CertainFix+ (§5.2).
func BenchmarkAblationBDD(b *testing.B) {
	ds := mustHosp(b, benchTuples)
	for _, cached := range []bool{false, true} {
		name := "certainfix"
		if cached {
			name = "certainfix+"
		}
		b.Run(name, func(b *testing.B) {
			m, err := monitor.New(ds.Sigma, ds.Master, monitor.Config{UseBDD: cached})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				idx := i % len(ds.Inputs)
				if _, err := m.Fix(context.Background(), ds.Inputs[idx], monitor.SimulatedUser{Truth: ds.Truths[idx]}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationDirectVsGeneral compares the Thm-5 direct-fix checker
// with the general Thm-4 closure checker on the same direct region.
func BenchmarkAblationDirectVsGeneral(b *testing.B) {
	ds := mustHosp(b, 1)
	checker := analysis.NewChecker(ds.Sigma, ds.Master)
	r := ds.Sigma.Schema()
	tm := ds.Master.Tuple(0)
	rm := ds.Master.Schema()
	z := r.MustPosList("id", "mCode")
	row := pattern.MustTuple(z, []pattern.Cell{
		pattern.Eq(tm[rm.MustPos("id")]),
		pattern.Eq(tm[rm.MustPos("mCode")]),
	})
	reg := fix.MustRegion(z, pattern.NewTableau(row))

	b.Run("direct-thm5", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := checker.DirectConsistent(reg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("general-thm4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := checker.Consistent(reg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationDepGraph compares TransFix (dependency-graph ordering,
// Fig. 5) with the naive fixpoint iteration over Σ.
func BenchmarkAblationDepGraph(b *testing.B) {
	ds := mustHosp(b, 1)
	g := rule.NewDepGraph(ds.Sigma)
	r := ds.Sigma.Schema()
	base := ds.Master.Tuple(0).Clone()
	z := r.MustPosList("id", "mCode")

	b.Run("transfix", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			t := base.Clone()
			zSet := relation.NewAttrSet(z...)
			if _, err := fix.TransFix(g, ds.Master, t, &zSet); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			t := base.Clone()
			zSet := relation.NewAttrSet(z...)
			if _, err := oracle.NaiveFix(ds.Sigma, ds.Master, t, &zSet); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCorePrimitives micro-benchmarks the hot paths: one rule
// application probe, one Suggest call, one Thm-4 concrete check on the
// paper's running example.
func BenchmarkCorePrimitives(b *testing.B) {
	sigma := paperex.Sigma0()
	dm := master.MustNewForRules(paperex.MasterRelation(), sigma)
	d := suggest.NewDeriver(sigma, dm)
	r := sigma.Schema()
	t1 := paperex.InputT1()
	zSet := relation.NewAttrSet(r.MustPosList("zip", "AC", "str", "city")...)

	b.Run("suggest", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if s := d.Suggest(t1, zSet); len(s.S) == 0 {
				b.Fatal("empty suggestion")
			}
		}
	})
	b.Run("concrete-check", func(b *testing.B) {
		z := r.MustPosList("zip", "phn", "type", "item")
		vals := []relation.Value{
			relation.String("EH7 4AH"), relation.String("079172485"),
			relation.String("2"), relation.String("CD"),
		}
		for i := 0; i < b.N; i++ {
			if !d.CertainRow(z, vals) {
				b.Fatal("row must be certain")
			}
		}
	})
	b.Run("explore", func(b *testing.B) {
		zs := relation.NewAttrSet(r.MustPosList("zip", "phn", "type", "item")...)
		for i := 0; i < b.N; i++ {
			res := oracle.Explore(sigma, dm, t1, zs, 0)
			if !res.Unique() {
				b.Fatal("must be unique")
			}
		}
	})
}

func reportCell(b *testing.B, tab *experiments.Table, row, col int, name string) {
	b.Helper()
	var v float64
	if _, err := fmt.Sscanf(tab.Rows[row][col], "%f", &v); err != nil {
		b.Fatalf("cell %d,%d: %v", row, col, err)
	}
	b.ReportMetric(v, name)
}
