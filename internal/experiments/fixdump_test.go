package experiments_test

import (
	"bytes"
	"testing"

	"repro/internal/experiments"
)

// TestFixOutputWorkerInvariance: the fixed-output CSV is byte-identical
// for every worker count (the test-scale version of expdriver -experiment
// fixdump at several -workers).
func TestFixOutputWorkerInvariance(t *testing.T) {
	for _, ds := range []string{"hosp", "dblp"} {
		base := experiments.Params{Dataset: ds, Seed: 7, MasterSize: 400, Tuples: 60, Workers: 1}
		want, err := experiments.FixedOutputs(base)
		if err != nil {
			t.Fatalf("%s sequential: %v", ds, err)
		}
		var wantCSV bytes.Buffer
		if err := want.WriteCSV(&wantCSV); err != nil {
			t.Fatal(err)
		}
		if want.Len() != 60 {
			t.Fatalf("%s: %d outputs, want 60", ds, want.Len())
		}
		for _, workers := range []int{2, 4, 8} {
			p := base
			p.Workers = workers
			got, err := experiments.FixedOutputs(p)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", ds, workers, err)
			}
			var gotCSV bytes.Buffer
			if err := got.WriteCSV(&gotCSV); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotCSV.Bytes(), wantCSV.Bytes()) {
				t.Fatalf("%s workers=%d: fixed output differs from the sequential run", ds, workers)
			}
		}
	}
}

// TestFixOutputWALInvariance pins the durable-lineage counterpart: a
// fixdump over a storm-evolved master is byte-identical whether the
// batches ran in memory or through the WAL + checkpoint lineage (the
// test-scale version of the CI smoke's -wal-dir diff).
func TestFixOutputWALInvariance(t *testing.T) {
	base := experiments.Params{Dataset: "hosp", Seed: 7, MasterSize: 300, Tuples: 40, UpdateBatches: 6}
	want, err := experiments.FixedOutputs(base)
	if err != nil {
		t.Fatal(err)
	}
	var wantCSV bytes.Buffer
	if err := want.WriteCSV(&wantCSV); err != nil {
		t.Fatal(err)
	}
	p := base
	p.WALDir = t.TempDir()
	got, err := experiments.FixedOutputs(p)
	if err != nil {
		t.Fatal(err)
	}
	var gotCSV bytes.Buffer
	if err := got.WriteCSV(&gotCSV); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotCSV.Bytes(), wantCSV.Bytes()) {
		t.Fatal("fixed output differs between in-memory and WAL-logged update batches")
	}
	// The lineage the storm left behind is recoverable: reopening the
	// directory alone restores the evolved epoch.
	if _, err := experiments.FixedOutputs(p); err != nil {
		t.Fatalf("second run over the recovered lineage: %v", err)
	}
}
