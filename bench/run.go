package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/pkg/certainfix"
)

// runConfig is one run of one workload.
type runConfig struct {
	wl     workload
	seed   int64
	window time.Duration // the measured window; warm-up is a sixth of it
	trace  bool
	boots  int
	tail   int // samples required beyond a reported percentile

	root, buildDir, bin string
}

// runInfo records the conditions a result was measured under.
type runInfo struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Trace      bool    `json:"trace"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"server_gomaxprocs"`
	Shards     int     `json:"shards"`
	Clients    int     `json:"fix_clients"`
	Updaters   int     `json:"updaters"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	WarmupS    float64 `json:"warmup_s"`
	WindowS    float64 `json:"window_s"`
	Boots      int     `json:"boots"`
	MasterSize int     `json:"master_size"`
	Inputs     int     `json:"inputs"`
}

// runResult is everything one run reports.
type runResult struct {
	Info      runInfo  `json:"info"`
	Metrics   []metric `json:"metrics"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	FirstErr  string   `json:"first_error,omitempty"`
}

func (r *runResult) correct() bool { return r.Failed == 0 }

func commit(root string) string {
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown" // an exported checkout has no history
	}
	return strings.TrimSpace(string(out))
}

// serverArgs is the command line the workload's server boots with.
func serverArgs(wl workload, d *dataset, walDir string) []string {
	args := []string{"-rules", d.rulesPath, "-shards", fmt.Sprint(shards)}
	if wl.arena {
		args = append(args, "-master-snapshot", d.arenaPath)
	} else {
		args = append(args, "-master", d.csvPath)
	}
	if wl.storm {
		args = append(args, "-wal-dir", walDir, "-fsync", "always", "-auth",
			"-checkpoint-every", fmt.Sprint(checkpointN))
	}
	return args
}

// inProcess builds the library System the way the workload's server
// builds its own: same rules, same master, same layout, same options.
func inProcess(wl workload, d *dataset, walDir string) (*certainfix.System, error) {
	if wl.arena {
		return certainfix.NewFromArena(d.ds.Sigma, d.arenaPath)
	}
	opts := []certainfix.Option{certainfix.WithShards(shards)}
	if wl.storm {
		opts = append(opts, certainfix.WithAuth(), certainfix.WithWAL(walDir),
			certainfix.WithFsync(certainfix.FsyncAlways), certainfix.WithCheckpointEvery(checkpointN))
	}
	return certainfix.New(d.ds.Sigma, d.ds.Master.Relation(), opts...)
}

// expectedFixes fixes every generated input in this process.
func expectedFixes(sys *certainfix.System, d *dataset) ([]certainfix.Result, error) {
	return sys.FixBatchContext(context.Background(), d.ds.Inputs,
		func(i int) certainfix.User { return certainfix.SimulatedUser{Truth: d.ds.Truths[i]} }, runtime.NumCPU())
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runWorkload performs one run: generate, boot, load, check, measure.
func runWorkload(cfg runConfig) (res *runResult, err error) {
	wl := cfg.wl
	warmup := cfg.window / 6
	res = &runResult{Info: runInfo{
		Workload: wl.name, Seed: cfg.seed, Trace: cfg.trace,
		NProc: runtime.NumCPU(), GOMAXPROCS: serverProcs(), Shards: shards, Clients: wl.clients,
		GoVersion: runtime.Version(), Commit: commit(cfg.root),
		WarmupS: warmup.Seconds(), WindowS: cfg.window.Seconds(),
		MasterSize: wl.masterSize, Inputs: numInputs,
	}}
	if wl.storm {
		res.Info.Updaters = 1
	}

	work, err := os.MkdirTemp(cfg.buildDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	// Enough batches for the warm-up and both passes of a traced run, with
	// room for a slow host.
	nbatches := int((warmup+3*cfg.window)/updateInterval) + 500
	data, err := generate(wl, cfg.seed, nbatches, work)
	if err != nil {
		return nil, err
	}
	orc := &oracle{rules: data.ds.Sigma}
	var sys *certainfix.System
	closeSys := func() {
		if sys != nil {
			sys.Close()
			sys = nil
		}
	}
	defer closeSys()
	if !wl.storm || cfg.trace {
		if sys, err = inProcess(wl, data, filepath.Join(work, "wal-inprocess")); err != nil {
			return nil, err
		}
	}
	if !wl.storm {
		if orc.expected, err = expectedFixes(sys, data); err != nil {
			return nil, err
		}
	}
	if !cfg.trace {
		// The load needs only the inputs and truths from here on. Letting
		// go of the two masters keeps this process's heap, and with it the
		// collector's share of the cores the server also runs on, small.
		closeSys()
		data.ds.Master = nil
		runtime.GC()
	}

	// Set-up, several times over; the last server stays for the load. A
	// durable leader gets a fresh directory each time: set-up is the first
	// start, not a recovery.
	var (
		srv    *server
		setups []float64
		walDir string
	)
	// A set-up of tens of milliseconds is mostly process start and varies
	// by a third from one to the next, so quick ones are repeated more
	// often: until they have taken a second and a half, or thrice as many.
	var spent time.Duration
	nboots := cfg.boots
	if cfg.trace {
		nboots = 1 // a traced run's own setup_s is not what the benchmark reports
	}
	for i := 0; i < nboots || (i < 3*nboots && spent < 1500*time.Millisecond); i++ {
		if srv != nil {
			srv.stop()
		}
		walDir = filepath.Join(work, fmt.Sprintf("wal-%d", i))
		booted, took, err := boot(cfg.bin, serverArgs(wl, data, walDir))
		if err != nil {
			return nil, err
		}
		srv, setups, spent = booted, append(setups, took.Seconds()), spent+took
	}
	defer func() { srv.stop() }()
	res.Info.Boots = len(setups)

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	var next atomic.Int64
	drivers := make([]*fixDriver, wl.clients)
	for i := range drivers {
		c := newClient(srv.base, nil)
		defer c.close()
		drivers[i] = &fixDriver{c: c, data: data, oracle: orc, next: &next, park: wl.storm}
	}
	var upd *updater
	if wl.storm {
		bodies := make([][]byte, len(data.batches))
		for i, b := range data.batches {
			if bodies[i], err = json.Marshal(map[string]any{"adds": b.Adds, "deletes": b.Deletes}); err != nil {
				return nil, err
			}
		}
		c := newClient(srv.base, tr)
		defer c.close()
		upd = startUpdater(c, bodies, updateInterval)
	}

	ms := &metricSet{}
	warm, _ := runFixers(drivers, warmup, math.MaxInt64)
	cpu0, t0 := cpuTime(), time.Now()
	from := next.Load()
	st, elapsed := runFixers(drivers, cfg.window, math.MaxInt64)
	t1 := time.Now()
	loadCPU := float64(cpuTime()-cpu0) / float64(elapsed) / float64(runtime.NumCPU())
	st.absorbFailures(warm)

	var traced *fixStats
	if cfg.trace {
		// Replay exactly the sessions of the pass above, with spans.
		limit := next.Load()
		next.Store(from)
		for _, d := range drivers {
			d.c.tr = tr
		}
		traced, _ = runFixers(drivers, time.Hour, limit)
		for _, d := range drivers {
			d.abandon()
		}
		st.absorbFailures(traced)
	}

	rss, err := srv.peakRSSMB()
	if err != nil {
		return nil, err
	}
	var updates, windowUpdates []update // everything sent since t0, and what was due in the window
	var recoverS float64
	if wl.storm {
		upd.finish()
		updates, windowUpdates = upd.during(t0, time.Now()), upd.during(t0, t1)
		st.absorbFailures(&fixStats{failed: upd.failed, firstErr: upd.lastErr})
		// Crash, then restart on the same directory: nothing acknowledged
		// may be missing, and |Dm| must be the one the epoch implies.
		srv.kill()
		restarted, took, err := boot(cfg.bin, serverArgs(wl, data, walDir))
		if err != nil {
			return nil, fmt.Errorf("restart after SIGKILL: %w", err)
		}
		srv, recoverS = restarted, took.Seconds()
		h, err := srv.health()
		if err != nil {
			return nil, err
		}
		wantSize := wl.masterSize + int(h.Epoch)*(stormAdds-stormDeletes)
		if h.Epoch < upd.acked || h.MasterSize != wantSize {
			st.fail(fmt.Errorf("recovery: epoch %d (acknowledged %d), |Dm| %d (epoch implies %d)",
				h.Epoch, upd.acked, h.MasterSize, wantSize))
		}
	}

	res.Attempted = len(st.fix) + st.failed + len(updates)
	res.Failed = st.failed
	if st.firstErr != nil {
		res.FirstErr = st.firstErr.Error()
	}
	if len(st.fix) == 0 {
		return nil, fmt.Errorf("no fix completed in the window: %v", st.firstErr)
	}

	endToEndMetrics(ms, cfg, window{from: t0, length: cfg.window, fixes: st, updates: windowUpdates}, setups, rss, recoverS)
	if cfg.trace {
		lm := &layerMeasurer{cfg: cfg, data: data, sys: sys, tr: tr, ms: ms, work: work}
		if err := lm.measure(st, traced, updates, loadCPU, recoverS); err != nil {
			return nil, err
		}
		if err := tr.write(filepath.Join(cfg.root, "bench", "out", "trace.json")); err != nil {
			return nil, err
		}
	} else {
		fmt.Fprintf(os.Stderr, "cfbench: %s: loadgen used %.0f%% of the host's CPU\n", wl.name, 100*loadCPU)
	}
	if ms.err != nil {
		return nil, ms.err
	}
	res.Metrics = ms.list
	return res, nil
}

// window is one measured window of closed-loop load.
type window struct {
	from    time.Time
	length  time.Duration
	fixes   *fixStats
	updates []update // storm: the batches due inside the window
}

// endToEndMetrics turns one window's samples into the user-visible
// metrics. Timings and the fix rate are the median slice's (stats.go).
func endToEndMetrics(ms *metricSet, cfg runConfig, w window, setups []float64, rss, recoverS float64) {
	st := w.fixes
	timing := func(name string, xs []sample, p float64) {
		ms.sliced(name, xs, p, time.Millisecond, w.from, w.length, cfg.tail)
	}
	ms.add("setup_s", "s", median(setups), len(setups))
	ms.add("fixes_per_s", "1/s", slicedRate(st.fix, w.from, w.length), len(st.fix))
	timing("fix_p50_ms", st.fix, 0.50)
	timing("fix_p99_ms", st.fix, 0.99)
	timing("answer_p50_ms", st.answer, 0.50)
	timing("answer_p99_ms", st.answer, 0.99)
	ms.add("rss_mb", "MB", rss, 1)
	var bytes, attrs, rounds float64
	for _, c := range st.perInput {
		bytes += float64(c.bytes)
		attrs += float64(c.userAttrs)
		rounds += float64(c.rounds)
	}
	ms.add("wire_bytes_per_fix", "B", bytes/float64(len(st.perInput)), len(st.perInput))
	ms.add("user_attrs_per_fix", "count", attrs/float64(len(st.perInput)), len(st.perInput))
	ms.add("rounds_per_fix", "count", rounds/float64(len(st.perInput)), len(st.perInput))
	lat := make([]sample, len(w.updates))
	for i, u := range w.updates {
		lat[i] = sample{at: u.due, d: u.latency}
	}
	if cfg.wl.storm {
		timing("update_p50_ms", lat, 0.50)
		timing("update_p95_ms", lat, 0.95)
		ms.add("recover_s", "s", recoverS, 1)
	} else if cfg.trace {
		// A traced run reports a fixed list, whatever the workload.
		ms.add("update_p50_ms", "ms", 0, 0)
		ms.add("update_p95_ms", "ms", 0, 0)
		ms.add("recover_s", "s", 0, 0)
	}
	attempted := len(st.fix) + st.failed + len(w.updates)
	ms.add("failed_frac", "frac", float64(st.failed)/float64(attempted), attempted)
}
