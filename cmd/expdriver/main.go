// Command expdriver regenerates every table and figure of the paper's
// evaluation (§6) on the synthetic HOSP/DBLP substrate and prints them as
// aligned text tables. See DESIGN.md for the experiment index and
// EXPERIMENTS.md for a discussion of paper-vs-measured results.
//
// Usage:
//
//	expdriver [-experiment all|exp1|exp2|fig9|fig10|fig11|fig12|effort|fixdump]
//	          [-dataset hosp|dblp|both] [-master N] [-tuples N] [-seed N]
//	          [-workers N] [-out FILE] [-master-snapshot FILE]
//	          [-update-batches N] [-wal-dir DIR]
//
// -update-batches evolves the generated master through N deterministic
// delta batches before fixing; with -wal-dir the batches run through the
// durable WAL + checkpoint lineage at that directory — the production
// write path — and the fixdump must be byte-identical to a memory-only
// run, which the CI scale smoke diffs.
//
// -master-snapshot reuses a columnar master arena image across runs: an
// existing image is loaded instead of rebuilding the master indexes, a
// missing one is saved after the build. Fix outputs are byte-identical
// either way; the CI scale smoke diffs rebuilt vs arena-loaded fixdumps.
//
// The defaults run a laptop-scale pass (|Dm| = 2000, |D| = 500) in a few
// seconds; raise -master/-tuples to approach the paper's 10K/10K setting.
//
// The fixdump experiment runs the full pipeline end to end — generate,
// build the master, fix every tuple on -workers workers — and writes the
// repaired relation as CSV to -out. Its output is byte-identical for every
// -workers value.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"repro/internal/experiments"
	"repro/internal/master"
)

// experimentNames are the values -experiment accepts.
var experimentNames = []string{"all", "exp1", "exp2", "fig9", "fig10", "fig11", "fig12", "effort", "fixdump"}

func main() {
	var (
		experiment = flag.String("experiment", "all", "which experiment to run: "+strings.Join(experimentNames, ", "))
		dataset    = flag.String("dataset", "both", "dataset: hosp, dblp or both")
		masterSize = flag.Int("master", 2000, "master relation size |Dm|")
		tuples     = flag.Int("tuples", 500, "input tuples |D|")
		seed       = flag.Int64("seed", 1, "generator seed")
		workers    = flag.Int("workers", 1, "batch-fix workers for accuracy experiments (fig12 latency always runs sequentially)")
		outPath    = flag.String("out", "", "output file for fixdump (default stdout)")
		snapshot   = flag.String("master-snapshot", "", "columnar master arena: load it when the file exists, else build and save it (fix results are identical either way)")
		updates    = flag.Int("update-batches", 0, "fixdump only: evolve the master through N deterministic delta batches before fixing")
		walDir     = flag.String("wal-dir", "", "fixdump only: apply the update batches through the durable WAL+checkpoint lineage at this directory")
	)
	flag.Parse()

	if !slices.Contains(experimentNames, *experiment) {
		usagef("unknown experiment %q", *experiment)
	}
	datasets := []string{"hosp", "dblp"}
	switch *dataset {
	case "both":
	case "hosp", "dblp":
		datasets = []string{*dataset}
	default:
		usagef("unknown dataset %q", *dataset)
	}

	run := func(name string) bool { return *experiment == "all" || *experiment == name }

	if run("exp1") {
		t, err := experiments.Exp1RegionSizes(*seed, *masterSize)
		checkErr(err)
		t.Fprint(os.Stdout)
	}

	if *experiment == "fixdump" {
		if len(datasets) != 1 {
			fatalf("fixdump writes one relation; pick -dataset hosp or -dataset dblp")
		}
		ds := datasets[0]
		p := experiments.Params{Dataset: ds, Seed: *seed, MasterSize: *masterSize, Tuples: *tuples, Workers: *workers, MasterSnapshot: *snapshot, UpdateBatches: *updates, WALDir: *walDir}
		rel, err := experiments.FixedOutputs(p)
		checkErr(err)
		out := os.Stdout
		if *outPath != "" {
			f, err := os.Create(*outPath)
			checkErr(err)
			out = f
		}
		checkErr(rel.WriteCSV(out))
		if *outPath != "" {
			checkErr(out.Close())
			fmt.Fprintf(os.Stderr, "expdriver: wrote %d fixed %s tuples to %s (|Dm|=%d, workers=%d)\n",
				rel.Len(), ds, *outPath, *masterSize, *workers)
		}
		return
	}

	rates := []float64{0.1, 0.2, 0.3, 0.4, 0.5}
	m := float64(*masterSize)
	sizes := []float64{m / 2, m, m * 3 / 2, m * 2, m * 5 / 2}
	for _, ds := range datasets {
		p := experiments.Params{Dataset: ds, Seed: *seed, MasterSize: *masterSize, Tuples: *tuples, Workers: *workers, MasterSnapshot: *snapshot}

		if run("exp2") {
			t, err := experiments.Exp2InitialSuggestion(p)
			checkErr(err)
			t.Fprint(os.Stdout)
		}
		if run("fig9") {
			t, err := experiments.Fig9(p)
			checkErr(err)
			t.Fprint(os.Stdout)
		}
		if run("effort") {
			t, err := experiments.Effort(p)
			checkErr(err)
			t.Fprint(os.Stdout)
		}
		if run("fig10") {
			t, err := experiments.Fig10Sweep(p, "dup", rates)
			checkErr(err)
			t.Fprint(os.Stdout)
			t, err = experiments.Fig10Sweep(p, "master", sizes)
			checkErr(err)
			t.Fprint(os.Stdout)
			t, err = experiments.Fig10Sweep(p, "noise", rates)
			checkErr(err)
			t.Fprint(os.Stdout)
		}
		if run("fig11") {
			t, err := experiments.Fig11Sweep(p, "dup", rates)
			checkErr(err)
			t.Fprint(os.Stdout)
			t, err = experiments.Fig11Sweep(p, "master", sizes)
			checkErr(err)
			t.Fprint(os.Stdout)
			t, err = experiments.Fig11Sweep(p, "noise", rates)
			checkErr(err)
			t.Fprint(os.Stdout)
		}
		if run("fig12") {
			t, err := experiments.Fig12Sweep(p, "master", sizes[:4])
			checkErr(err)
			t.Fprint(os.Stdout)
			t, err = experiments.Fig12Sweep(p, "tuples", []float64{10, 100, float64(*tuples), float64(*tuples) * 2})
			checkErr(err)
			t.Fprint(os.Stdout)
		}
	}
}

func checkErr(err error) {
	if err == nil {
		return
	}
	// *master.BuildError renders the failing tuple's id and key itself;
	// the sentinel check just names the subsystem for the operator.
	if errors.Is(err, master.ErrMasterBuild) {
		fatalf("master data rejected: %v", err)
	}
	fatalf("%v", err)
}

// usagef reports a flag value the command does not know and exits 2, as
// the flag package does for a malformed one.
func usagef(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "expdriver: "+format+"\n", args...)
	os.Exit(2)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "expdriver: "+format+"\n", args...)
	os.Exit(1)
}
