package experiments_test

import (
	"bytes"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// Small, deterministic parameter sets: the tests assert the qualitative
// shapes the paper reports, which the bench harness then reproduces at
// larger scale.
func tinyParams(dataset string) experiments.Params {
	return experiments.Params{Dataset: dataset, Seed: 1, MasterSize: 400, Tuples: 120}
}

func cell(t *testing.T, tab *experiments.Table, row, col int) float64 {
	t.Helper()
	s := strings.TrimSuffix(tab.Rows[row][col], "%")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q: %v", row, col, tab.Rows[row][col], err)
	}
	return v
}

func TestExp1Shapes(t *testing.T) {
	tab, err := experiments.Exp1RegionSizes(1, 400)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// hosp: 2 vs 4 (the paper's exact numbers); dblp: 5 vs larger.
	if tab.Rows[0][1] != "2" || tab.Rows[0][2] != "4" {
		t.Errorf("hosp row = %v, want CompCRegion 2, GRegion 4", tab.Rows[0])
	}
	if tab.Rows[1][1] != "5" {
		t.Errorf("dblp CompCRegion = %v, want 5", tab.Rows[1])
	}
	if cell(t, tab, 1, 2) <= cell(t, tab, 1, 1) {
		t.Errorf("dblp GRegion must exceed CompCRegion: %v", tab.Rows[1])
	}
}

func TestExp2CRHQBeatsCRMQ(t *testing.T) {
	for _, ds := range []string{"hosp", "dblp"} {
		tab, err := experiments.Exp2InitialSuggestion(tinyParams(ds))
		if err != nil {
			t.Fatal(err)
		}
		if hq, mq := cell(t, tab, 0, 1), cell(t, tab, 0, 2); hq < mq {
			t.Errorf("%s: CRHQ F-measure %.2f < CRMQ %.2f", ds, hq, mq)
		}
	}
}

func TestFig9RecallMonotone(t *testing.T) {
	for _, ds := range []string{"hosp", "dblp"} {
		tab, err := experiments.Fig9(tinyParams(ds))
		if err != nil {
			t.Fatal(err)
		}
		var prevT, prevA float64
		for r := range tab.Rows {
			rt, ra := cell(t, tab, r, 1), cell(t, tab, r, 2)
			if rt < prevT || ra < prevA {
				t.Fatalf("%s: recall not monotone at k=%d: %v", ds, r+1, tab.Rows)
			}
			prevT, prevA = rt, ra
		}
		// All tuples fixed by the last round (the simulated user answers
		// every suggestion).
		if last := cell(t, tab, len(tab.Rows)-1, 1); last < 0.95 {
			t.Errorf("%s: final recall_t = %.2f, want ≈ 1", ds, last)
		}
	}
}

func TestFig10DupRateMonotone(t *testing.T) {
	tab, err := experiments.Fig10Sweep(tinyParams("hosp"), "dup", []float64{0.1, 0.3, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	// recall_t at k=1 grows with d% (Fig 10a: "the recall_t is 0.3 when
	// k=1, exactly the same as d%").
	if !(cell(t, tab, 0, 1) < cell(t, tab, 2, 1)) {
		t.Errorf("k=1 recall must grow with d%%: %v", tab.Rows)
	}
	for r := range tab.Rows {
		if k1 := cell(t, tab, r, 1); k1 > cell(t, tab, r, 0)/100+0.25 {
			t.Errorf("k=1 recall %.2f should track d%% %v", k1, tab.Rows[r][0])
		}
	}
}

func TestFig10MasterSweepRuns(t *testing.T) {
	tab, err := experiments.Fig10Sweep(tinyParams("dblp"), "master", []float64{200, 400})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 || tab.Rows[0][0] != "200" {
		t.Fatalf("rows = %v", tab.Rows)
	}
}

func TestFig11NoiseCollapseForIncRep(t *testing.T) {
	tab, err := experiments.Fig11Sweep(tinyParams("hosp"), "noise", []float64{0.1, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	incCol := len(tab.Columns) - 1
	lowNoise, highNoise := cell(t, tab, 0, incCol), cell(t, tab, 1, incCol)
	if highNoise >= lowNoise {
		t.Errorf("IncRep F must degrade with noise: %.2f -> %.2f", lowNoise, highNoise)
	}
	// Our method beats IncRep at high noise (the paper's headline claim).
	oursHigh := cell(t, tab, 1, incCol-1)
	if oursHigh <= highNoise {
		t.Errorf("CertainFix (%.2f) must beat IncRep (%.2f) at high noise", oursHigh, highNoise)
	}
	// And our F is noise-insensitive: within a modest band across rows.
	oursLow := cell(t, tab, 0, incCol-1)
	if diff := oursLow - oursHigh; diff > 0.15 || diff < -0.15 {
		t.Errorf("CertainFix F should be noise-insensitive: %.2f vs %.2f", oursLow, oursHigh)
	}
}

func TestFig12CacheEffective(t *testing.T) {
	p := tinyParams("hosp")
	tab, err := experiments.Fig12Sweep(p, "tuples", []float64{50, 150})
	if err != nil {
		t.Fatal(err)
	}
	// The hit-rate column grows with the stream and is positive.
	hitCol := len(tab.Columns) - 1
	if cell(t, tab, 1, hitCol) <= 0 {
		t.Errorf("cache hit rate must be positive on a stream: %v", tab.Rows)
	}
	tab, err = experiments.Fig12Sweep(p, "master", []float64{200, 400})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %v", tab.Rows)
	}
}

// TestWorkerCountInvariance: the accuracy tables are the same on one
// worker and on four — the per-tuple scores are summed in input order
// whatever order the workers finish in — and so is IncRep's column.
func TestWorkerCountInvariance(t *testing.T) {
	for _, ds := range []string{"hosp", "dblp"} {
		tables := func(workers int) []*experiments.Table {
			p := tinyParams(ds)
			p.Workers = workers
			fig9, err := experiments.Fig9(p)
			if err != nil {
				t.Fatal(err)
			}
			exp2, err := experiments.Exp2InitialSuggestion(p)
			if err != nil {
				t.Fatal(err)
			}
			fig11, err := experiments.Fig11Sweep(p, "noise", []float64{0.1, 0.5})
			if err != nil {
				t.Fatal(err)
			}
			return []*experiments.Table{fig9, exp2, fig11}
		}
		one, four := tables(1), tables(4)
		for i := range one {
			if !reflect.DeepEqual(one[i], four[i]) {
				t.Errorf("%s: %q differs between 1 and 4 workers:\n%v\n%v", ds, one[i].Title, one[i].Rows, four[i].Rows)
			}
		}
	}
}

func TestTableFprint(t *testing.T) {
	tab := &experiments.Table{
		Title:   "demo",
		Columns: []string{"a", "long-header"},
		Rows:    [][]string{{"x", "1"}, {"longer-cell", "2"}},
	}
	var buf bytes.Buffer
	tab.Fprint(&buf)
	out := buf.String()
	if !strings.Contains(out, "== demo ==") || !strings.Contains(out, "longer-cell") {
		t.Fatalf("Fprint output:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("want title + header + 2 rows, got %d lines", len(lines))
	}
}

func TestUnknownDataset(t *testing.T) {
	_, err := experiments.Fig9(experiments.Params{Dataset: "nope", Seed: 1, MasterSize: 10, Tuples: 1})
	if err == nil {
		t.Fatal("unknown dataset must error")
	}
}
