// Command benchgate is the perf gate: it runs every benchmark invocation
// listed in benchgate.json (one `go test -run=NONE -benchmem` each), and
// fails (exit 1) when a recorded row is missing or an unrecorded one
// appears, when a row's allocs/op or B/op leaves its band around the
// recording — in either direction — or when an in-run time ratio exceeds
// its max. Allocations and bytes repeat across hosts and are the only
// absolute numbers; time is gated only as a ratio of two rows of the same
// execution, and ns/op is printed, never compared.
//
//	go run ./cmd/benchgate           # run and gate, from the repo root
//	go run ./cmd/benchgate -record   # run, rewrite the rows that left their band, gate
//
// Adding a benchmark to the gate is one "runs" line plus -record. Exit 2
// means a `go test` run itself failed: a broken benchmark, not a
// regression.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

const manifestPath = "benchgate.json"

func main() {
	record := flag.Bool("record", false, "rewrite the manifest's rows that left their band in this run before gating")
	flag.Parse()
	if flag.NArg() != 0 {
		fatalf("unexpected arguments %q: benchgate runs what %s lists", flag.Args(), manifestPath)
	}
	m, err := LoadManifest(manifestPath)
	if err != nil {
		fatalf("%v (run from the repo root)", err)
	}
	goVersion, err := exec.Command("go", "version").Output()
	if err != nil {
		fatalf("go version: %v", err)
	}

	var out bytes.Buffer
	for _, r := range m.Runs {
		args := []string{"test", "-run=NONE", "-bench=" + r.Bench, "-benchtime=" + r.Benchtime, "-benchmem", r.Pkg}
		fmt.Fprintf(os.Stderr, "benchgate: go %s\n", strings.Join(args, " "))
		b, err := exec.Command("go", args...).CombinedOutput()
		if err != nil {
			os.Stderr.Write(b)
			fatalf("go %s: %v", strings.Join(args, " "), err)
		}
		out.Write(b)
		out.WriteByte('\n')
	}
	cur, err := ParseBenchOutput(bytes.NewReader(out.Bytes()))
	if err != nil {
		fatalf("%v", err)
	}

	if *record {
		m.Record(cur)
		if err := os.WriteFile(manifestPath, m.Encode(), 0o644); err != nil {
			fatalf("%v", err)
		}
		fmt.Fprintf(os.Stderr, "benchgate: recorded %d rows to %s\n", len(cur), manifestPath)
	}
	fmt.Printf("benchgate: %s, GOMAXPROCS=%d, cpu: %s\n",
		strings.TrimSpace(string(goVersion)), runtime.GOMAXPROCS(0), cpuLine(out.String()))
	if !Gate(os.Stdout, m, cur) {
		fmt.Println("benchgate: FAIL")
		os.Exit(1)
	}
	fmt.Printf("benchgate: ok (%d rows, %d ratios)\n", len(m.Rows), len(m.Ratios))
}

// cpuLine returns what `go test -bench` printed after "cpu: ".
func cpuLine(out string) string {
	_, rest, _ := strings.Cut(out, "\ncpu: ")
	cpu, _, _ := strings.Cut(rest, "\n")
	return cpu
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchgate: "+format+"\n", args...)
	os.Exit(2)
}
