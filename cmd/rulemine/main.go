// Command rulemine mines editing rules from a master-data CSV and prints
// them in the rule DSL — the §7 future-work direction of the paper,
// packaged as a tool. Mining runs on the partition-refinement engine
// over the master's id columns (internal/discover); the emitted rules can be reviewed, trimmed
// and fed to cmd/certainfix or cmd/certainfixd.
//
// Usage:
//
//	rulemine -master hosp_master.csv [-maxlhs 2] [-minsupport 8]
//	         [-minconf 0.9] [-loop] [-maxrounds 3] [-cleaned out.csv]
//
// The input schema is taken from the CSV header; the rules map each
// attribute to the master attribute of the same name.
//
// With -minconf below 1, mining tolerates dirty master data: a rule is
// kept when at least that fraction of tuples support it, and the emitted
// DSL carries the measured confidence as a trailing `weight` clause.
// With -loop the discover→fix→re-discover bootstrap loop runs instead of
// a single pass: mined dependencies majority-repair the master cells
// that violate them, mining repeats on the cleaned data, and -cleaned
// optionally writes the repaired master CSV — a dataset with no
// hand-written Σ bootstraps both its rules and a cleaner master from
// nothing (see certainfix.Discover).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/relation"
	"repro/pkg/certainfix"
)

func main() {
	var (
		masterPath = flag.String("master", "", "master relation CSV (header = schema)")
		maxLHS     = flag.Int("maxlhs", 2, "maximum lhs width")
		minSupport = flag.Int("minsupport", 8, "minimum distinct lhs keys")
		minConf    = flag.Float64("minconf", 1, "minimum confidence; below 1 mines weighted rules from dirty data")
		loop       = flag.Bool("loop", false, "run the discover→fix→re-discover bootstrap loop")
		maxRounds  = flag.Int("maxrounds", 3, "bootstrap loop rounds (with -loop)")
		cleanedOut = flag.String("cleaned", "", "write the loop-repaired master CSV here (with -loop)")
	)
	flag.Parse()
	if *masterPath == "" {
		fatalf("-master is required")
	}

	f, err := os.Open(*masterPath)
	if err != nil {
		fatalf("%v", err)
	}
	defer f.Close()
	header, err := relation.ReadCSVHeader(f)
	if err != nil {
		fatalf("%v", err)
	}
	// Re-open: ReadCSV wants the header too.
	if _, err := f.Seek(0, 0); err != nil {
		fatalf("%v", err)
	}
	attrs := relation.StringAttrs(header...)
	rm, err := relation.NewSchema("master", attrs...)
	if err != nil {
		fatalf("%v", err)
	}
	rel, err := certainfix.ReadCSV(rm, bufio.NewReader(f))
	if err != nil {
		fatalf("%v", err)
	}
	r, err := relation.NewSchema("input", attrs...)
	if err != nil {
		fatalf("%v", err)
	}

	opts := certainfix.DiscoverOptions{
		MaxLHS: *maxLHS, MinSupport: *minSupport, MinConfidence: *minConf,
	}
	var (
		rules *certainfix.Rules
		deps  []certainfix.MinedDependency
	)
	if *loop {
		res, err := certainfix.Discover(r, rel, certainfix.DiscoverLoopOptions{
			Options: opts, MaxRounds: *maxRounds,
		})
		if err != nil {
			fatalf("%v", err)
		}
		rules, deps = res.Rules, res.Deps
		for _, rd := range res.Rounds {
			fmt.Fprintf(os.Stderr, "rulemine: round %d: %d deps, %d cells repaired, mean confidence %.4f\n",
				rd.Round, rd.Deps, rd.CellsRepaired, rd.MeanConfidence)
		}
		if *cleanedOut != "" {
			out, err := os.Create(*cleanedOut)
			if err != nil {
				fatalf("%v", err)
			}
			w := bufio.NewWriter(out)
			if err := res.Cleaned.WriteCSV(w); err != nil {
				fatalf("writing cleaned master: %v", err)
			}
			if err := w.Flush(); err != nil {
				fatalf("writing cleaned master: %v", err)
			}
			if err := out.Close(); err != nil {
				fatalf("writing cleaned master: %v", err)
			}
			fmt.Fprintf(os.Stderr, "rulemine: cleaned master written to %s\n", *cleanedOut)
		}
	} else {
		rules, deps, err = certainfix.DiscoverRules(r, rel, opts)
		if err != nil {
			fatalf("%v", err)
		}
	}

	fmt.Printf("# %d editing rules mined from %s (|Dm| = %d)\n", rules.Len(), *masterPath, rel.Len())
	fmt.Printf("schema input: %s\n", strings.Join(header, ", "))
	fmt.Printf("master master: %s\n", strings.Join(header, ", "))
	for i, ru := range rules.Rules() {
		var lhs []string
		for _, p := range ru.LHS() {
			lhs = append(lhs, r.Attr(p).Name)
		}
		// Evidence goes on its own comment line: the DSL has no trailing
		// comments, and the output must feed cmd/certainfix unedited.
		evidence := fmt.Sprintf("# support %d", deps[i].Support)
		if deps[i].Violations > 0 {
			evidence += fmt.Sprintf(", %d violations", deps[i].Violations)
		}
		fmt.Println(evidence)
		line := fmt.Sprintf("rule %s: (%s ; %s) -> (%s ; %s)",
			ru.Name(), strings.Join(lhs, ", "), strings.Join(lhs, ", "),
			r.Attr(ru.RHS()).Name, r.Attr(ru.RHS()).Name)
		if ru.Confidence() < 1 {
			line += fmt.Sprintf(" weight %.4g", ru.Confidence())
		}
		fmt.Println(line)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "rulemine: "+format+"\n", args...)
	os.Exit(1)
}
