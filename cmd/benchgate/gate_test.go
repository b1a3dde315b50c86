package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkProbeAlloc/hit-8         	 9303972	       118.6 ns/op	       0 B/op	       0 allocs/op
BenchmarkProbeAlloc/miss-uninterned-8 	28292818	        42.53 ns/op	       0 B/op	       0 allocs/op
BenchmarkSuggest/compiled         	  224366	      5329 ns/op	     432 B/op	       6 allocs/op
BenchmarkFig9aRecallTuple/hosp-8  	      37	  31808108 ns/op	         0.7000 recall_t_k1	         0.9533 recall_t_final
BenchmarkProbeAlloc/hit-8         	 9000000	       131.0 ns/op	      16 B/op	       1 allocs/op
PASS
ok  	repro	12.3s
`

func parse(t *testing.T, out string) map[string]Measurement {
	t.Helper()
	meas, err := ParseBenchOutput(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	return meas
}

func TestParseBenchOutput(t *testing.T) {
	meas := parse(t, sampleOutput)
	hit, ok := meas["BenchmarkProbeAlloc/hit"]
	if !ok {
		t.Fatalf("hit benchmark missing (GOMAXPROCS suffix not stripped?): %v", meas)
	}
	// Duplicate lines: min ns/op, max allocs/op with its B/op.
	if want := (Measurement{NsOp: 118.6, BOp: 16, AllocsOp: 1}); hit != want {
		t.Fatalf("hit = %+v, want %+v", hit, want)
	}
	if want := (Measurement{NsOp: 5329, BOp: 432, AllocsOp: 6}); meas["BenchmarkSuggest/compiled"] != want {
		t.Fatalf("suggest = %+v", meas["BenchmarkSuggest/compiled"])
	}
	// Custom ReportMetric columns are ignored.
	if want := (Measurement{NsOp: 31808108}); meas["BenchmarkFig9aRecallTuple/hosp"] != want {
		t.Fatalf("fig9 = %+v", meas["BenchmarkFig9aRecallTuple/hosp"])
	}
	if got := cpuLine(sampleOutput); got != "Intel(R) Xeon(R) Processor @ 2.10GHz" {
		t.Fatalf("cpuLine = %q", got)
	}
}

// line renders one -benchmem result line at GOMAXPROCS 4.
func line(name string, ns float64, b, allocs int64) string {
	return fmt.Sprintf("%s-4 \t 100\t %g ns/op\t %d B/op\t %d allocs/op\n", name, ns, b, allocs)
}

// gate runs Gate over synthetic bench output and returns the report.
func gate(t *testing.T, m *Manifest, out string) (string, bool) {
	t.Helper()
	var buf bytes.Buffer
	pass := Gate(&buf, m, parse(t, out))
	return buf.String(), pass
}

// band is one row of the band tables: a recording and a measurement.
type band struct {
	name               string
	recAllocs, recB    int64
	curAllocs, curB    int64
	wantInReportOnFail string
}

func runBands(t *testing.T, cases []band, wantPass bool) {
	t.Helper()
	for _, c := range cases {
		m := &Manifest{Rows: map[string]Row{"BenchmarkX/y": {AllocsOp: c.recAllocs, BOp: c.recB}}}
		report, pass := gate(t, m, line("BenchmarkX/y", 100, c.curB, c.curAllocs))
		if pass != wantPass || !strings.Contains(report, c.wantInReportOnFail) {
			t.Errorf("%s: pass = %v, want %v with %q in:\n%s", c.name, pass, wantPass, c.wantInReportOnFail, report)
		}
	}
}

func TestGateWithinTolerancePasses(t *testing.T) {
	runBands(t, []band{
		{name: "equal", recAllocs: 21, recB: 3907, curAllocs: 21, curB: 3907},
		{name: "zero stays zero", recAllocs: 0, recB: 0, curAllocs: 0, curB: 0},
		{name: "75,304 -> 75,305 is runtime noise", recAllocs: 75304, recB: 5470717, curAllocs: 75305, curB: 5470717},
		{name: "75,304 -> 75,229 is the band's lower edge", recAllocs: 75304, recB: 5470717, curAllocs: 75229, curB: 5470717},
		{name: "B/op +1%", recAllocs: 6, recB: 1000, curAllocs: 6, curB: 1010},
		{name: "B/op -1%", recAllocs: 6, recB: 1000, curAllocs: 6, curB: 990},
	}, true)
}

// TestGateAnyAllocIncreaseFails: below 1,000 allocs/op the band is empty —
// the 0-alloc probe allocating once is the regression the gate exists
// for — and past the band a row fails in either direction.
func TestGateAnyAllocIncreaseFails(t *testing.T) {
	runBands(t, []band{
		{name: "0 -> 1", recAllocs: 0, recB: 0, curAllocs: 1, curB: 0, wantInReportOnFail: "allocs/op rose 0 -> 1"},
		{name: "21 -> 22", recAllocs: 21, recB: 3907, curAllocs: 22, curB: 3907, wantInReportOnFail: "allocs/op rose 21 -> 22"},
		{name: "999 -> 1,000", recAllocs: 999, recB: 64, curAllocs: 1000, curB: 64, wantInReportOnFail: "allocs/op rose 999 -> 1000"},
		{name: "75,304 -> 75,380", recAllocs: 75304, recB: 64, curAllocs: 75380, curB: 64, wantInReportOnFail: "allocs/op rose"},
		{name: "B/op +1.1%", recAllocs: 6, recB: 1000, curAllocs: 6, curB: 1011, wantInReportOnFail: "B/op rose 1000 -> 1011"},
		{name: "B/op 0 -> 16", recAllocs: 0, recB: 0, curAllocs: 0, curB: 16, wantInReportOnFail: "B/op rose 0 -> 16"},
		{name: "allocs improved", recAllocs: 46, recB: 1296, curAllocs: 42, curB: 1296, wantInReportOnFail: "allocs/op fell 46 -> 42: re-record"},
		{name: "bytes improved", recAllocs: 6, recB: 1000, curAllocs: 6, curB: 900, wantInReportOnFail: "B/op fell 1000 -> 900 (> 1%): re-record"},
	}, false)
}

var ratioManifest = &Manifest{
	Rows: map[string]Row{"BenchmarkC/compiled": {}, "BenchmarkC/naive": {AllocsOp: 21, BOp: 168}},
	Ratios: []Ratio{{Num: "BenchmarkC/compiled", Den: "BenchmarkC/naive", Max: 0.4,
		Why: "the compiled closure beats re-scanning Σ"}},
}

// TestGateFasterAlwaysPasses: ns/op is compared with no recording, so a
// host five times faster or slower gates the same.
func TestGateFasterAlwaysPasses(t *testing.T) {
	for _, scale := range []float64{0.2, 1, 5} {
		report, pass := gate(t, ratioManifest,
			line("BenchmarkC/compiled", 100*scale, 0, 0)+line("BenchmarkC/naive", 650*scale, 168, 21))
		if !pass || !strings.Contains(report, "ok   ratio C/compiled ÷ C/naive = 0.154 <= max 0.4") {
			t.Errorf("host ×%g: pass = %v\n%s", scale, pass, report)
		}
	}
}

// TestGateNsRegressionFails: the one way time fails is a ratio — the
// optimised row slowing against its reference in the same run — and a
// ratio whose operand the run did not measure fails rather than passing
// unmeasured.
func TestGateNsRegressionFails(t *testing.T) {
	report, pass := gate(t, ratioManifest,
		line("BenchmarkC/compiled", 300, 0, 0)+line("BenchmarkC/naive", 650, 168, 21))
	if pass || !strings.Contains(report, "FAIL ratio C/compiled ÷ C/naive = 0.462 > max 0.4 (the compiled closure beats re-scanning Σ)") {
		t.Errorf("ratio past max: pass = %v\n%s", pass, report)
	}
	if strings.Contains(report, "FAIL Benchmark") {
		t.Errorf("a slow row failed on its own, not only through the ratio:\n%s", report)
	}
	report, pass = gate(t, ratioManifest, line("BenchmarkC/compiled", 100, 0, 0))
	if pass || !strings.Contains(report, "FAIL ratio C/compiled ÷ C/naive: operand not measured") {
		t.Errorf("operand missing: pass = %v\n%s", pass, report)
	}
}

// TestGateMissingAndStrict: the gate is always strict — a recorded row no
// run produced fails.
func TestGateMissingAndStrict(t *testing.T) {
	m := &Manifest{Rows: map[string]Row{"BenchmarkGone": {}, "BenchmarkX/y": {}}}
	report, pass := gate(t, m, line("BenchmarkX/y", 100, 0, 0))
	if pass || !strings.Contains(report, "FAIL BenchmarkGone") || !strings.Contains(report, "no run produced it") ||
		!strings.Contains(report, "ok   BenchmarkX/y") {
		t.Fatalf("missing row: pass = %v\n%s", pass, report)
	}
}

// TestGateUnrecordedRowFails: a measured benchmark the manifest does not
// record would otherwise never gate at all.
func TestGateUnrecordedRowFails(t *testing.T) {
	m := &Manifest{Rows: map[string]Row{"BenchmarkX/y": {}}}
	report, pass := gate(t, m, line("BenchmarkX/y", 100, 0, 0)+line("BenchmarkColdStartArena/Dm=100000", 7e6, 0, 9))
	if pass || !strings.Contains(report, "FAIL BenchmarkColdStartArena/Dm=100000") || !strings.Contains(report, "benchgate -record") {
		t.Fatalf("unrecorded row: pass = %v\n%s", pass, report)
	}
}

// TestRecordRoundTrip: recording an output and gating the same output
// passes, and recording it again writes the same bytes.
func TestRecordRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), manifestPath)
	m := &Manifest{
		Runs:   []Run{{Pkg: ".", Bench: "BenchmarkProbeAlloc|BenchmarkSuggest$", Benchtime: "10000x"}},
		Ratios: []Ratio{{Num: "BenchmarkProbeAlloc/hit", Den: "BenchmarkSuggest/compiled", Max: 0.5, Why: "a probe < a suggestion"}},
		Rows:   map[string]Row{"BenchmarkStale": {AllocsOp: 3}},
	}
	meas := parse(t, sampleOutput)
	m.Record(meas)
	first := m.Encode()
	if err := os.WriteFile(path, first, 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if !Gate(&buf, loaded, meas) || len(loaded.Rows) != len(meas) {
		t.Fatalf("recorded output must gate clean (%d rows for %d measurements):\n%s", len(loaded.Rows), len(meas), buf.String())
	}
	loaded.Record(meas)
	if second := loaded.Encode(); !bytes.Equal(first, second) {
		t.Fatalf("second record differs:\n%s\nvs\n%s", first, second)
	}
	if err := os.WriteFile(path, []byte(`{"runs":[{"pkg":"."}],"baseline":"x"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadManifest(path); err == nil {
		t.Fatal("unknown manifest field accepted")
	}
}

// TestRecordKeepsRowsInBand: a re-record rewrites only the rows whose
// measurement left the band around their recording; a row that moved
// within it keeps its recorded numbers byte for byte, a new row is added
// and a row no run produced is dropped.
func TestRecordKeepsRowsInBand(t *testing.T) {
	m := &Manifest{
		Runs: []Run{{Pkg: ".", Bench: "Benchmark", Benchtime: "1x"}},
		Rows: map[string]Row{
			"BenchmarkSteady": {AllocsOp: 5000, BOp: 100000},
			"BenchmarkMoved":  {AllocsOp: 5000, BOp: 100000},
			"BenchmarkGone":   {AllocsOp: 1, BOp: 8},
		},
	}
	m.Record(map[string]Measurement{
		"BenchmarkSteady": {AllocsOp: 5004, BOp: 100900},
		"BenchmarkMoved":  {AllocsOp: 4000, BOp: 100000},
		"BenchmarkNew":    {AllocsOp: 2, BOp: 64},
	})
	want := map[string]Row{
		"BenchmarkSteady": {AllocsOp: 5000, BOp: 100000},
		"BenchmarkMoved":  {AllocsOp: 4000, BOp: 100000},
		"BenchmarkNew":    {AllocsOp: 2, BOp: 64},
	}
	if len(m.Rows) != len(want) {
		t.Fatalf("recorded rows %v, want %v", m.Rows, want)
	}
	for name, w := range want {
		if got := m.Rows[name]; got != w {
			t.Fatalf("%s recorded as %+v, want %+v", name, got, w)
		}
	}
	before := m.Encode()
	m.Record(map[string]Measurement{
		"BenchmarkSteady": {AllocsOp: 4996, BOp: 99100},
		"BenchmarkMoved":  {AllocsOp: 4003, BOp: 100500},
		"BenchmarkNew":    {AllocsOp: 2, BOp: 64},
	})
	if after := m.Encode(); !bytes.Equal(before, after) {
		t.Fatalf("a re-record within every band rewrote the manifest:\n%s\nvs\n%s", before, after)
	}
}

// TestManifestMatchesTree: the checked-in manifest names benchmarks that
// exist, so a renamed benchmark fails `go test ./...` and not only CI.
// Every run's package has a Benchmark function its pattern selects, every
// recorded row and ratio operand is producible by some run, and the file
// is in the form -record writes.
func TestManifestMatchesTree(t *testing.T) {
	const root = "../.."
	m, err := LoadManifest(filepath.Join(root, manifestPath))
	if err != nil {
		t.Fatal(err)
	}
	if raw, _ := os.ReadFile(filepath.Join(root, manifestPath)); !bytes.Equal(raw, m.Encode()) {
		t.Errorf("%s is not in the form benchgate -record writes", manifestPath)
	}

	benchFunc := regexp.MustCompile(`(?m)^func (Benchmark\w*)\(b \*testing\.B\)`)
	funcs := make([]map[string]bool, len(m.Runs)) // per run: the functions its pattern selects
	for i, r := range m.Runs {
		files, _ := filepath.Glob(filepath.Join(root, r.Pkg, "*_test.go"))
		top := regexp.MustCompile(strings.Split(r.Bench, "/")[0])
		funcs[i] = map[string]bool{}
		for _, f := range files {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			for _, decl := range benchFunc.FindAllSubmatch(src, -1) {
				if name := string(decl[1]); top.MatchString(name) {
					funcs[i][name] = true
				}
			}
		}
		if len(funcs[i]) == 0 {
			t.Errorf("run %d: -bench=%q selects no Benchmark function in %s", i, r.Bench, r.Pkg)
		}
	}
	// producible mirrors go test's matching: the pattern's i-th
	// slash-separated element must match the name's i-th.
	producible := func(name string) bool {
		parts := strings.Split(name, "/")
		for i, r := range m.Runs {
			ok := funcs[i][parts[0]]
			for j, elem := range strings.Split(r.Bench, "/") {
				if ok && j > 0 && j < len(parts) {
					ok = regexp.MustCompile(elem).MatchString(parts[j])
				}
			}
			if ok {
				return true
			}
		}
		return false
	}
	for name := range m.Rows {
		if !producible(name) {
			t.Errorf("row %s: no run produces it", name)
		}
	}
	for _, r := range m.Ratios {
		for _, operand := range []string{r.Num, r.Den} {
			if _, recorded := m.Rows[operand]; !recorded || !producible(operand) {
				t.Errorf("ratio %s ÷ %s: operand %s is not a recorded, producible row", r.Num, r.Den, operand)
			}
		}
		if r.Max <= 0 || r.Why == "" {
			t.Errorf("ratio %s ÷ %s needs a max and a why", r.Num, r.Den)
		}
	}
}
