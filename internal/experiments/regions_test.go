package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/monitor"
)

// The certain regions a monitor derives at boot (§5, CompCRegion plus the
// greedy GRegion) seed every session's first suggestion, and the first and
// last of them are the CRHQ and CRMQ choices of §6 Exp-1(2). The golden file
// pins them at expdriver's defaults so that a change to region derivation or
// to the Theorem-4 check that moves one shows up as a diff. -update rewrites
// it, for a change that means to move a region.
var updateRegions = flag.Bool("update", false, "rewrite testdata/regions.txt")

const regionsGolden = "testdata/regions.txt"

// regionsText renders Monitor.Regions() for both datasets at the defaults
// (seed 1, |Dm| 2000): per candidate, Z by attribute name, quality and
// support, best first.
func regionsText(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, name := range []string{"hosp", "dblp"} {
		ds, err := generate(Params{Dataset: name}.WithDefaults())
		if err != nil {
			t.Fatal(err)
		}
		m, err := monitor.New(ds.Sigma, ds.Master, monitor.Config{})
		if err != nil {
			t.Fatal(err)
		}
		r := ds.Sigma.Schema()
		for i, c := range m.Regions() {
			names := make([]string, len(c.Z))
			for j, a := range c.Z {
				names[j] = r.Attr(a).Name
			}
			fmt.Fprintf(&buf, "%s %d: Z=[%s] quality=%s support=%d\n", name, i,
				strings.Join(names, " "), strconv.FormatFloat(c.Quality, 'g', -1, 64), c.Support)
		}
	}
	return buf.Bytes()
}

// TestRegionsGolden holds the derived regions of HOSP and DBLP to the
// checked-in list.
func TestRegionsGolden(t *testing.T) {
	got := regionsText(t)
	if *updateRegions {
		if err := os.WriteFile(regionsGolden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(regionsGolden)
	if err != nil {
		t.Fatalf("%v (go test -run TestRegionsGolden -update ./internal/experiments writes it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("regions moved:\n got:\n%s\nwant:\n%s", got, want)
	}
}
