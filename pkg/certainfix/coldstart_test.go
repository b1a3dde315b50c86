package certainfix_test

// The streamed boot at the public surface: a System opened on a master CSV
// file fixes exactly like one opened on the relation read from that file.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/datagen"
	"repro/pkg/certainfix"
)

// writeMasterCSV writes ds's master relation as a CSV file under a
// directory of tb's.
func writeMasterCSV(tb testing.TB, ds *datagen.Dataset) string {
	tb.Helper()
	var buf bytes.Buffer
	if err := ds.Master.Relation().WriteCSV(&buf); err != nil {
		tb.Fatal(err)
	}
	path := filepath.Join(tb.TempDir(), "master.csv")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		tb.Fatal(err)
	}
	return path
}

func TestNewFromCSVEqualsNew(t *testing.T) {
	ds, err := datagen.Hosp(datagen.Config{Seed: 4, MasterSize: 800, Tuples: 120, DupRate: 0.3, NoiseRate: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	path := writeMasterCSV(t, ds)
	streamed, err := certainfix.NewFromCSV(ds.Sigma, path)
	if err != nil {
		t.Fatal(err)
	}
	if bt := streamed.BootTimings(); bt.MasterRead <= 0 || bt.MasterRead > bt.Master {
		t.Fatalf("boot timings %+v: reading the file is part of obtaining the master", bt)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rel, err := certainfix.ReadCSV(ds.Sigma.MasterSchema(), f)
	if err != nil {
		t.Fatal(err)
	}
	collected, err := certainfix.New(ds.Sigma, rel)
	if err != nil {
		t.Fatal(err)
	}
	userFor := func(i int) certainfix.User { return certainfix.SimulatedUser{Truth: ds.Truths[i]} }
	got, err := streamed.FixBatchContext(context.Background(), ds.Inputs, userFor, 2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := collected.FixBatchContext(context.Background(), ds.Inputs, userFor, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Compared as the JSON a client sees: an empty AttrSet has more than one
	// in-memory form.
	for i := range want {
		g, _ := json.Marshal(&got[i])
		w, _ := json.Marshal(&want[i])
		if !bytes.Equal(g, w) {
			t.Fatalf("input %d: a System streamed from the CSV fixes\n%s\none built on the relation read from it\n%s", i, g, w)
		}
	}

	// The file's errors come back with its name: a missing file, a bad row.
	if _, err := certainfix.NewFromCSV(ds.Sigma, path+".absent"); !os.IsNotExist(err) {
		t.Fatalf("missing master CSV: %v", err)
	}
	bad := filepath.Join(t.TempDir(), "bad.csv")
	if err := os.WriteFile(bad, []byte("not,the,header\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := certainfix.NewFromCSV(ds.Sigma, bad); err == nil || !bytes.Contains([]byte(err.Error()), []byte(bad)) {
		t.Fatalf("malformed master CSV: %v", err)
	}
}

// BenchmarkNewFromCSV is the boot from a master CSV file: parse and intern
// the rows, build the indexes and support counts, derive the regions. The file is
// written off the clock. Run with -benchmem: allocs/op and B/op cover the
// whole boot, so a chunk ring that grew with |Dm| would show (GOMAXPROCS is
// pinned at 2: two chunk workers beside the in-order merge).
func BenchmarkNewFromCSV(b *testing.B) {
	const n = 100_000
	ds, err := datagen.Hosp(datagen.Config{Seed: 1, MasterSize: n, Tuples: 1})
	if err != nil {
		b.Fatal(err)
	}
	path := writeMasterCSV(b, ds)
	b.Run(fmt.Sprintf("Dm=%d", n), func(b *testing.B) {
		prev := runtime.GOMAXPROCS(2)
		defer runtime.GOMAXPROCS(prev)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := certainfix.NewFromCSV(ds.Sigma, path); err != nil {
				b.Fatal(err)
			}
		}
	})
}
