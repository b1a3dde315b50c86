package main

// The manifest, the bench-output parser and the comparison, separated from
// main so the unit tests drive them on synthetic output.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Manifest is benchgate.json: what to run, what each row recorded, and
// which in-run time ratios are bounded. It is the only place a benchmark
// pattern, benchtime, recorded number or bound lives.
type Manifest struct {
	Runs   []Run          `json:"runs"`
	Ratios []Ratio        `json:"ratios"`
	Rows   map[string]Row `json:"rows"`
}

// Run is one `go test -run=NONE -benchmem` invocation.
type Run struct {
	Pkg       string `json:"pkg"`
	Bench     string `json:"bench"`
	Benchtime string `json:"benchtime"`
}

// Ratio bounds ns/op of row Num over ns/op of row Den, both measured in
// the same benchgate execution. Why names the PR or invariant it protects.
type Ratio struct {
	Num string  `json:"num"`
	Den string  `json:"den"`
	Max float64 `json:"max"`
	Why string  `json:"why"`
}

// Row is what one benchmark recorded: the two columns that repeat across
// hosts.
type Row struct {
	AllocsOp int64 `json:"allocs_op"`
	BOp      int64 `json:"b_op"`
}

// LoadManifest reads and validates a manifest file.
func LoadManifest(path string) (*Manifest, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var m Manifest
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(m.Runs) == 0 {
		return nil, fmt.Errorf("%s: no \"runs\"", path)
	}
	return &m, nil
}

// Encode renders the manifest in its one canonical form (rows sorted by
// name), so recording the same measurements twice writes the same bytes.
func (m *Manifest) Encode() []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(m); err != nil {
		panic(err) // strings, numbers and a string-keyed map always encode
	}
	return buf.Bytes()
}

// Record makes the recorded rows those cur measured: a row still within
// its band (checkRow) keeps its recording, one that left it is rewritten, a
// new one is added and one no run produced is dropped. So a re-record after
// a change moves only the rows the change moved.
func (m *Manifest) Record(cur map[string]Measurement) {
	rows := make(map[string]Row, len(cur))
	for name, c := range cur {
		if rec, ok := m.Rows[name]; ok && checkRow(rec, c) == "" {
			rows[name] = rec
			continue
		}
		rows[name] = Row{AllocsOp: c.AllocsOp, BOp: c.BOp}
	}
	m.Rows = rows
}

// Measurement is one benchmark's observed numbers.
type Measurement struct {
	NsOp     float64
	BOp      int64
	AllocsOp int64
}

// benchLine matches one `go test -bench` result line, e.g.
//
//	BenchmarkProbeAlloc/hit-8   9303972   118.6 ns/op   0 B/op   0 allocs/op
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+(.*)$`)

// ParseBenchOutput extracts measurements from `go test -bench` output.
// The trailing -N GOMAXPROCS suffix is stripped from names. When a
// benchmark appears several times, the minimum ns/op is kept — the
// least-noise estimate — and the maximum allocs/op with its B/op, the
// conservative choice for the allocation gate.
func ParseBenchOutput(r io.Reader) (map[string]Measurement, error) {
	out := map[string]Measurement{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		meas, ok := parseMetrics(m[2])
		if !ok {
			continue
		}
		if prev, seen := out[m[1]]; seen {
			meas.NsOp = min(meas.NsOp, prev.NsOp)
			if prev.AllocsOp > meas.AllocsOp {
				meas.AllocsOp, meas.BOp = prev.AllocsOp, prev.BOp
			}
		}
		out[m[1]] = meas
	}
	return out, sc.Err()
}

// parseMetrics reads the "value unit" pairs after the iteration count;
// units other than the three -benchmem prints (ReportMetric columns) are
// skipped.
func parseMetrics(rest string) (Measurement, bool) {
	fields := strings.Fields(rest)
	var meas Measurement
	ok := false
	for i := 0; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Measurement{}, false
		}
		switch fields[i+1] {
		case "ns/op":
			meas.NsOp = v
			ok = true
		case "B/op":
			meas.BOp = int64(v)
		case "allocs/op":
			meas.AllocsOp = int64(v)
		}
	}
	return meas, ok
}

// checkRow compares one measurement with its recording and returns what
// left its band, "" when nothing did. allocs/op may move by
// ⌊recorded/1000⌋ — exact below 1,000, so 0 stays 0 — and B/op by 1 %,
// in either direction: an improvement past the band fails too, asking
// for a re-record, so the manifest stays a true statement about the tree.
func checkRow(rec Row, cur Measurement) string {
	var bad []string
	if d := cur.AllocsOp - rec.AllocsOp; d > rec.AllocsOp/1000 {
		bad = append(bad, fmt.Sprintf("allocs/op rose %d -> %d", rec.AllocsOp, cur.AllocsOp))
	} else if -d > rec.AllocsOp/1000 {
		bad = append(bad, fmt.Sprintf("allocs/op fell %d -> %d: re-record", rec.AllocsOp, cur.AllocsOp))
	}
	if d := cur.BOp - rec.BOp; d*100 > rec.BOp {
		bad = append(bad, fmt.Sprintf("B/op rose %d -> %d (> 1%%)", rec.BOp, cur.BOp))
	} else if -d*100 > rec.BOp {
		bad = append(bad, fmt.Sprintf("B/op fell %d -> %d (> 1%%): re-record", rec.BOp, cur.BOp))
	}
	return strings.Join(bad, "; ")
}

// Gate writes one line per recorded row, per measured row the manifest
// does not record, and per ratio, and reports whether all of them pass. A
// recorded row no run produced and a produced row nobody recorded both
// fail: the manifest and the tree name the same benchmarks. ns/op and
// each ratio's value are printed for the reader and compared with no
// recording — only a ratio's max bounds time.
func Gate(w io.Writer, m *Manifest, cur map[string]Measurement) bool {
	names := make([]string, 0, len(m.Rows)+len(cur))
	for name := range m.Rows {
		names = append(names, name)
	}
	for name := range cur {
		if _, recorded := m.Rows[name]; !recorded {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	pass := true
	for _, name := range names {
		rec, recorded := m.Rows[name]
		c, measured := cur[name]
		why := ""
		switch {
		case !measured:
			why = "recorded, but no run produced it"
		case !recorded:
			why = "not in the manifest: benchgate -record"
		default:
			why = checkRow(rec, c)
		}
		status := "ok  "
		if why != "" {
			status, pass = "FAIL", false
		}
		fmt.Fprintf(w, "%s %-45s %12.1f ns/op %9d allocs/op %11d B/op  %s\n",
			status, name, c.NsOp, c.AllocsOp, c.BOp, why)
	}
	for _, r := range m.Ratios {
		num, haveNum := cur[r.Num]
		den, haveDen := cur[r.Den]
		label := fmt.Sprintf("%s ÷ %s", strings.TrimPrefix(r.Num, "Benchmark"), strings.TrimPrefix(r.Den, "Benchmark"))
		switch {
		case !haveNum || !haveDen || den.NsOp == 0:
			pass = false
			fmt.Fprintf(w, "FAIL ratio %s: operand not measured in this run\n", label)
		case num.NsOp/den.NsOp > r.Max:
			pass = false
			fmt.Fprintf(w, "FAIL ratio %s = %.3f > max %g (%s)\n", label, num.NsOp/den.NsOp, r.Max, r.Why)
		default:
			fmt.Fprintf(w, "ok   ratio %s = %.3f <= max %g\n", label, num.NsOp/den.NsOp, r.Max)
		}
	}
	return pass
}
