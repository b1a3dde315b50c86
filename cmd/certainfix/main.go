// Command certainfix repairs a CSV of input tuples against master data
// and editing rules — the data-monitoring tool of the paper, batch-style.
//
// The rules file uses the rule DSL preceded by two schema headers:
//
//	schema R: zip, ST, phn, ...
//	master Rm: zip, ST, phn, ...
//	rule h01: (zip ; zip) -> (ST ; ST) when zip != nil
//	...
//
// For each input tuple the tool treats the attributes named by -validated
// as assured correct, applies every certain fix (TransFix), and writes
// the repaired relation. With -suggest it instead prints, per tuple, the
// attributes the interactive framework would ask the user to validate
// next.
//
// Usage:
//
//	certainfix -rules hosp.rules -master hosp_master.csv \
//	           -input hosp_input.csv -validated id,mCode -out fixed.csv
//
// With -master-snapshot the tool reuses a columnar arena image across
// runs: an existing image is loaded (mmap + validate) instead of
// rebuilding master indexes from CSV; a missing one is built from
// -master and saved for the next run.
package main

import (
	"bufio"
	"context"
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/cmd/internal/cli"
	"repro/pkg/certainfix"
)

func main() {
	var (
		rulesPath   = flag.String("rules", "", "rules file (schema headers + rule DSL)")
		masterPath  = flag.String("master", "", "master relation CSV")
		inputPath   = flag.String("input", "", "input tuples CSV")
		outPath     = flag.String("out", "", "output CSV (default stdout)")
		validated   = flag.String("validated", "", "comma-separated attributes assured correct")
		suggestOut  = flag.Bool("suggest", false, "print next-suggestion per tuple instead of repairing")
		interactive = flag.Bool("interactive", false, "fix each tuple interactively on the terminal")
		workers     = flag.Int("workers", 0, "concurrent repair workers (0 = all CPUs)")
		masterDelta = flag.String("master-delta", "", "master-delta replay file applied before fixing (lines 'add,<cells...>' / 'del,<id>'; '---' publishes a batch)")
		snapshot    = flag.String("master-snapshot", "", "columnar master arena: load it when the file exists, else build from -master and save it")
	)
	flag.Parse()
	if *rulesPath == "" || *inputPath == "" {
		fatalf("-rules and -input are required")
	}
	if *masterPath == "" && *snapshot == "" {
		fatalf("-master is required (or -master-snapshot naming an existing image)")
	}

	r, rm, rules, err := cli.LoadRules(*rulesPath)
	if err != nil {
		fatalf("%v", err)
	}
	inputs, err := cli.LoadCSV(r, *inputPath)
	if err != nil {
		fatalf("%v", err)
	}
	sys, err := cli.OpenSystem(rules, *masterPath, *snapshot)
	if err != nil {
		fatalf("%v", err)
	}
	if *masterDelta != "" {
		if err := replayMasterDeltas(sys, rm, *masterDelta); err != nil {
			fatalf("%v", err)
		}
	}

	var validatedPos []int
	if *validated != "" {
		for _, name := range strings.Split(*validated, ",") {
			p, ok := r.Pos(strings.TrimSpace(name))
			if !ok {
				fatalf("unknown validated attribute %q", name)
			}
			validatedPos = append(validatedPos, p)
		}
	} else if len(sys.Regions()) > 0 {
		validatedPos = sys.Regions()[0].Z
		var names []string
		for _, p := range validatedPos {
			names = append(names, r.Attr(p).Name)
		}
		fmt.Fprintf(os.Stderr, "certainfix: using best certain region, validating: %s\n", strings.Join(names, ", "))
	}

	if *interactive {
		if err := runInteractive(sys, inputs, *outPath); err != nil {
			fatalf("%v", err)
		}
		return
	}

	if *suggestOut {
		for i := 0; i < inputs.Len(); i++ {
			s := sys.Suggest(inputs.Tuple(i), validatedPos)
			var names []string
			for _, p := range s {
				names = append(names, r.Attr(p).Name)
			}
			fmt.Printf("tuple %d: validate %s\n", i, strings.Join(names, ", "))
		}
		return
	}

	fixedRel := certainfix.NewRelation(r)
	totalFixed := 0
	batch := make([]certainfix.Tuple, 0, inputs.Len())
	for _, t := range inputs.All() {
		batch = append(batch, t)
	}
	repairs, err := sys.RepairBatchContext(context.Background(), batch, validatedPos, *workers)
	if err != nil {
		fatalf("%v", err)
	}
	for i, rep := range repairs {
		fixed := rep.Tuple
		if rep.Err != nil {
			fmt.Fprintf(os.Stderr, "certainfix: tuple %d: %v (left unchanged)\n", i, rep.Err)
			fixed = inputs.Tuple(i).Clone()
		}
		totalFixed += len(rep.Fixed)
		fixedRel.MustAppend(fixed)
	}

	w := os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fatalf("%v", err)
		}
		defer f.Close()
		w = f
	}
	bw := bufio.NewWriter(w)
	if err := fixedRel.WriteCSV(bw); err != nil {
		fatalf("%v", err)
	}
	if err := bw.Flush(); err != nil {
		fatalf("%v", err)
	}
	fmt.Fprintf(os.Stderr, "certainfix: repaired %d cells across %d tuples\n", totalFixed, inputs.Len())
}

// replayMasterDeltas applies a master-delta file against the running
// system — the operational path for master corrections that previously
// required a full restart. The file is CSV (same quoting rules as the
// master CSV, '#' comments allowed); each record is either
//
//	add,<cell>,<cell>,...   append a master tuple (Rm order, CSV cells)
//	del,<id>                delete the master tuple with this id in the
//	                        current snapshot (swap-remove: the last tuple
//	                        takes the freed id)
//	---                     publish the accumulated batch as one epoch
//
// A trailing batch without '---' is published at EOF. Per published
// batch, the new epoch and master size are logged to stderr.
func replayMasterDeltas(sys *certainfix.System, rm *certainfix.Schema, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	cr := csv.NewReader(bufio.NewReader(f))
	cr.FieldsPerRecord = -1 // record shapes vary by op
	cr.Comment = '#'

	var adds []certainfix.Tuple
	var dels []int
	publish := func() error {
		if len(adds) == 0 && len(dels) == 0 {
			return nil
		}
		epoch, err := sys.UpdateMaster(adds, dels)
		if err != nil {
			return fmt.Errorf("%s: publish delta: %w", path, err)
		}
		fmt.Fprintf(os.Stderr, "certainfix: master delta published: epoch %d, +%d/-%d tuples, |Dm| = %d\n",
			epoch, len(adds), len(dels), sys.MasterLen())
		adds, dels = nil, nil
		return nil
	}
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		ln, _ := cr.FieldPos(0)
		switch rec[0] {
		case "---":
			if len(rec) != 1 {
				return fmt.Errorf("%s:%d: '---' takes no fields", path, ln)
			}
			if err := publish(); err != nil {
				return err
			}
		case "add":
			cells := rec[1:]
			if len(cells) != rm.Arity() {
				return fmt.Errorf("%s:%d: add needs %d cells, got %d", path, ln, rm.Arity(), len(cells))
			}
			adds = append(adds, certainfix.StringTuple(cells...))
		case "del":
			if len(rec) != 2 {
				return fmt.Errorf("%s:%d: del takes exactly one id", path, ln)
			}
			id, err := strconv.Atoi(rec[1])
			if err != nil {
				return fmt.Errorf("%s:%d: bad delete id %q: %w", path, ln, rec[1], err)
			}
			dels = append(dels, id)
		default:
			return fmt.Errorf("%s:%d: want 'add,...', 'del,<id>' or '---', got %q", path, ln, rec[0])
		}
	}
	return publish()
}

// runInteractive fixes every input tuple through a terminal dialogue:
// each round shows the suggested attributes with their current values;
// the user confirms (empty line) or types corrected values.
func runInteractive(sys *certainfix.System, inputs *certainfix.Relation, outPath string) error {
	schema := sys.Schema()
	stdin := bufio.NewScanner(os.Stdin)
	fixedRel := certainfix.NewRelation(schema)

	for i := 0; i < inputs.Len(); i++ {
		fmt.Printf("\n--- tuple %d/%d: %v\n", i+1, inputs.Len(), inputs.Tuple(i))
		sess, err := sys.Begin(context.Background(), inputs.Tuple(i))
		if err != nil {
			return err
		}
		for !sess.Done() {
			attrs := sess.Suggested()
			cur := sess.Tuple()
			values := make([]certainfix.Value, len(attrs))
			fmt.Println("please confirm or correct:")
			for j, p := range attrs {
				fmt.Printf("  %s [%v]: ", schema.Attr(p).Name, cur[p])
				if !stdin.Scan() {
					return stdin.Err()
				}
				text := strings.TrimSpace(stdin.Text())
				if text == "" {
					values[j] = cur[p] // confirmed as-is
				} else {
					values[j] = certainfix.String(text)
				}
			}
			if err := sess.Provide(attrs, values); err != nil {
				return err
			}
			fmt.Printf("  -> %v\n", sess.Tuple())
		}
		fixedRel.MustAppend(sess.Result().Tuple)
	}

	w := os.Stdout
	if outPath != "" {
		f, err := os.Create(outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	bw := bufio.NewWriter(w)
	if err := fixedRel.WriteCSV(bw); err != nil {
		return err
	}
	return bw.Flush()
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "certainfix: "+format+"\n", args...)
	os.Exit(1)
}
