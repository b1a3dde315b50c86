package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestPercentileSelection(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, c := range []struct {
		n       int
		p       float64
		tail    int
		want    float64
		refused bool
	}{
		{n: 3, p: 0.5, tail: 10, want: 2},     // a median needs no tail
		{n: 4, p: 0.5, tail: 10, want: 2},     // nearest rank, not interpolation
		{n: 100, p: 0.99, tail: 0, want: 99},  // rank ceil(0.99*100) = 99
		{n: 101, p: 0.99, tail: 0, want: 100}, // ceil(99.99) = 100
		{n: 100, p: 0.99, tail: 10, refused: true},
		{n: 1000, p: 0.99, tail: 10, want: 990}, // exactly ten beyond
		{n: 999, p: 0.99, tail: 10, refused: true},
		{n: 200, p: 0.95, tail: 10, want: 190},
		{n: 1, p: 0.5, tail: 10, want: 1},
		{n: 0, p: 0.5, tail: 0, refused: true},
	} {
		got, err := percentile(seq(c.n), c.p, c.tail)
		if c.refused != (err != nil) {
			t.Errorf("p%g of %d samples, tail %d: err = %v, want refusal %v", c.p*100, c.n, c.tail, err, c.refused)
		} else if !c.refused && got != c.want {
			t.Errorf("p%g of %d samples = %v, want %v", c.p*100, c.n, got, c.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "alone", Start: 0, End: 10, Parent: -1},
		{Name: "parent", Start: 100, End: 200, Parent: -1},
		{Name: "kid", Start: 110, End: 150, Parent: 1},
		{Name: "kid", Start: 140, End: 170, Parent: 1},      // overlaps its sibling by 10
		{Name: "grandkid", Start: 115, End: 125, Parent: 2}, // nested: comes off kid, not off parent
		{Name: "kid", Start: 190, End: 230, Parent: 1},      // reaches past its parent: clipped
	}
	got := selfTimes(spans)
	want := map[string]layerTime{
		"alone":    {Count: 1, Total: 10, SelfNS: 10},
		"parent":   {Count: 1, Total: 100, SelfNS: 100 - 60 - 10}, // children cover [110,170) and [190,200)
		"kid":      {Count: 3, Total: 40 + 30 + 40, SelfNS: 30 + 30 + 40},
		"grandkid": {Count: 1, Total: 10, SelfNS: 10},
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: %+v, want %+v", name, got[name], w)
		}
	}
	var off *tracer
	off.end(off.begin("x", -1, 0)) // a nil tracer records nothing and does not panic
}

// TestOpenLoopAccounting stalls the server on one batch and checks that
// the batches queued behind it are charged the wait: latency runs from
// the due time, and lateness says how far behind the schedule the
// generator was when it sent them.
func TestOpenLoopAccounting(t *testing.T) {
	const interval, stall = 10 * time.Millisecond, 100 * time.Millisecond
	n := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n++
		if n == 3 {
			time.Sleep(stall)
		}
		fmt.Fprintf(w, `{"epoch": %d}`, n)
	}))
	defer srv.Close()
	bodies := make([][]byte, 100)
	for i := range bodies {
		bodies[i] = []byte(`{}`)
	}
	c := newClient(srv.URL, nil)
	defer c.close()
	u := startUpdater(c, bodies, interval)
	time.Sleep(20*interval + stall)
	u.finish()

	if u.failed != 0 || len(u.sent) < 10 {
		t.Fatalf("updater: %d sent, %d failed: %v", len(u.sent), u.failed, u.lastErr)
	}
	if u.acked != uint64(len(u.sent)) {
		t.Errorf("acknowledged epoch %d after %d batches", u.acked, len(u.sent))
	}
	for i, x := range u.sent {
		if x.latency != x.late+x.service {
			t.Errorf("batch %d: latency %v is not lateness %v plus service %v", i, x.latency, x.late, x.service)
		}
		if i > 0 && x.due.Sub(u.sent[i-1].due) != interval {
			t.Errorf("batch %d was due %v after batch %d, want %v", i, x.due.Sub(u.sent[i-1].due), i-1, interval)
		}
	}
	if u.sent[2].service < stall {
		t.Errorf("stalled batch served in %v, stall was %v", u.sent[2].service, stall)
	}
	// Batch 3 was due 10ms after batch 2 and could go out only when the
	// stall ended; its own service was quick, its latency was not.
	if x := u.sent[3]; x.late < stall-2*interval || x.latency < stall-2*interval {
		t.Errorf("batch behind the stall: late %v, latency %v, want both near %v", x.late, x.latency, stall-interval)
	}
	if x := u.sent[0]; x.late > stall/2 {
		t.Errorf("first batch %v late on an idle server", x.late)
	}
	from := u.sent[4].due
	if got := u.during(from, from.Add(3*interval)); len(got) != 3 || !got[0].due.Equal(from) {
		t.Errorf("during: %d batches from %v, want 3 from %v", len(got), got[0].due, from)
	}
}

// TestByteCounting runs one request against a raw socket that counts what
// it reads and writes: the client's numbers must be the wire's.
func TestByteCounting(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	const response = "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 11\r\n\r\n{\"ok\":true}"
	read := make(chan int, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		total, length := 0, 0
		for {
			line, err := br.ReadString('\n')
			total += len(line)
			if err != nil || line == "\r\n" {
				break
			}
			if v, ok := strings.CutPrefix(strings.ToLower(line), "content-length:"); ok {
				length, _ = strconv.Atoi(strings.TrimSpace(v))
			}
		}
		n, _ := io.CopyN(io.Discard, br, int64(length))
		_, _ = io.WriteString(conn, response)
		read <- total + int(n)
	}()

	c := newClient("http://"+ln.Addr().String(), nil)
	defer c.close()
	body := []byte(`{"tuple":["a","b"]}`)
	r, err := c.post("/v1/begin", body)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(<-read); r.sent != want || r.sent <= int64(len(body)) {
		t.Errorf("client counted %d bytes sent, the socket read %d (body alone is %d)", r.sent, want, len(body))
	}
	if r.got != int64(len(response)) {
		t.Errorf("client counted %d bytes received, the socket wrote %d", r.got, len(response))
	}
	if string(r.body) != `{"ok":true}` || r.status != 200 {
		t.Errorf("reply %d %q", r.status, r.body)
	}
}

func TestSelfCheckFlagsDisagreement(t *testing.T) {
	suite := func(fixes, attrs float64) []*runResult {
		return []*runResult{{
			Info: runInfo{Workload: "hosp1k_fix"},
			Metrics: []metric{
				{Name: "fixes_per_s", Unit: "1/s", Value: fixes},
				{Name: "user_attrs_per_fix", Unit: "count", Value: attrs},
			},
		}}
	}
	if err := selfCheck([][]*runResult{suite(1000, 11.5), suite(1040, 11.5)}); err != nil {
		t.Errorf("4%% apart on a 25%% bound: %v", err)
	}
	if err := selfCheck([][]*runResult{suite(1000, 11.5), suite(700, 11.5)}); err == nil {
		t.Error("30% apart on a 25% bound passed")
	}
	if err := selfCheck([][]*runResult{suite(1000, 11.5), suite(1000, 11.501)}); err == nil {
		t.Error("a count metric that moved passed")
	}
}

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestManifestMatchesCode keeps BENCHMARK.json and the tables in
// workload.go saying the same thing.
func TestManifestMatchesCode(t *testing.T) {
	m := readManifest(t)
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("manifest has %d workloads, code %d", len(m.Workloads), len(workloads))
	}
	for i, wl := range workloads {
		if m.Workloads[i].Name != wl.name || m.Workloads[i].Why != wl.why {
			t.Errorf("workload %d: manifest %+v, code %q: %q", i, m.Workloads[i], wl.name, wl.why)
		}
		if len(wl.why) > 200 || strings.Contains(wl.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", wl.name, len(wl.why))
		}
	}
	var gated []metricDef
	for _, d := range endToEnd {
		if d.gated {
			gated = append(gated, d)
		}
	}
	if len(m.EndToEnd) != len(gated) {
		t.Fatalf("manifest has %d end-to-end metrics, code gates %d", len(m.EndToEnd), len(gated))
	}
	for i, d := range gated {
		better := "higher"
		if d.lowerBetter {
			better = "lower"
		}
		if g := m.EndToEnd[i]; g.Name != d.name || g.Unit != d.unit || g.Better != better || g.Bound != d.bound {
			t.Errorf("end-to-end %d: manifest %+v, code %+v", i, g, d)
		}
	}
}

// TestSmoke drives every workload shape through the real server at a
// size that takes seconds: |Dm| = 500 and a 1 s window. The read-only
// shapes check each fix against the in-process oracle, the storm shape
// ends with SIGKILL and recovery, and the traced runs replay the sessions
// through every layer, so what the benchmark reports is what this test
// sees, only smaller.
func TestSmoke(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	buildDir := t.TempDir()
	bin, err := buildServer(root, buildDir)
	if err != nil {
		t.Fatal(err)
	}
	m := readManifest(t)
	gated := map[string]bool{}
	for _, d := range endToEnd {
		gated[d.name] = d.gated
	}
	ungated := func(ms []metric) []string {
		var out []string
		for _, x := range ms {
			if !gated[x.Name] {
				out = append(out, x.Name)
			}
		}
		sort.Strings(out)
		return out
	}
	var perLayer []string
	for _, x := range m.PerLayer {
		perLayer = append(perLayer, x.Name)
	}
	sort.Strings(perLayer)

	for _, c := range []struct {
		shape  string
		traced bool
	}{
		{"hosp100k_fix", false}, {"hosp1k_fix", true}, {"hosp100k_arena", false}, {"hosp100k_storm", true},
	} {
		wl, err := findWorkload(c.shape)
		if err != nil {
			t.Fatal(err)
		}
		wl.masterSize = 500
		res, err := runWorkload(runConfig{
			wl: wl, seed: 1, window: time.Second, trace: c.traced, boots: 1, tail: 0,
			root: root, buildDir: buildDir, bin: bin,
		})
		if err != nil {
			t.Fatalf("%s: %v", c.shape, err)
		}
		if !res.correct() || res.Attempted < 50 {
			t.Errorf("%s: %d attempted, %d failed: %s", c.shape, res.Attempted, res.Failed, res.FirstErr)
		}
		ms := metricSet{list: res.Metrics}
		if c.traced {
			if got := ungated(res.Metrics); fmt.Sprint(got) != fmt.Sprint(perLayer) {
				t.Errorf("%s: traced run reported\n%v\nBENCHMARK.json lists\n%v", c.shape, got, perLayer)
			}
			if v, _ := ms.get("monitor.rounds_per_fix"); v.Value < 1 {
				t.Errorf("%s: %v rounds per fix", c.shape, v.Value)
			}
			if v, _ := ms.get("wal.append_us"); (v.N > 0) != wl.storm {
				t.Errorf("%s: wal.append_us has %d samples", c.shape, v.N)
			}
			continue
		}
		for _, d := range endToEnd {
			v, ok := ms.get(d.name)
			if ok == (d.stormOnly && !wl.storm) || ok && v.Value <= 0 {
				t.Errorf("%s: %s = %v (reported: %v)", c.shape, d.name, v.Value, ok)
			}
		}
	}
	if _, err := os.Stat(filepath.Join(root, "bench", "out", "trace.json")); err != nil {
		t.Errorf("traced run left no trace: %v", err)
	}
}
