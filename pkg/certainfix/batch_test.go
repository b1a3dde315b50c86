package certainfix_test

import (
	"context"
	"testing"

	"repro/internal/paperex"
	"repro/pkg/certainfix"
)

// TestRepairBatchMatchesRepairOnce: the concurrent batch repair must agree
// with per-tuple RepairOnce on every field, including the per-tuple error
// reporting that keeps one bad tuple from aborting the batch.
func TestRepairBatchMatchesRepairOnce(t *testing.T) {
	sys := paperSystem(t)
	r := sys.Schema()
	validated := []int{r.MustPos("zip"), r.MustPos("phn"), r.MustPos("type")}
	inputs := []certainfix.Tuple{
		paperex.InputT1(), paperex.InputT2(), paperex.InputT3(), paperex.InputT4(),
		paperex.InputT1(),
	}

	for _, workers := range []int{0, 1, 3, 8} {
		got, err := sys.RepairBatchContext(context.Background(), inputs, validated, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != len(inputs) {
			t.Fatalf("workers=%d: %d results for %d inputs", workers, len(got), len(inputs))
		}
		for i, in := range inputs {
			wantT, wantZ, wantFixed, wantErr := sys.RepairOnce(in, validated)
			rep := got[i]
			if (rep.Err == nil) != (wantErr == nil) {
				t.Fatalf("workers=%d tuple %d: err %v vs %v", workers, i, rep.Err, wantErr)
			}
			if wantErr != nil {
				continue
			}
			if !rep.Tuple.Equal(wantT) || !rep.Validated.Equal(wantZ) || len(rep.Fixed) != len(wantFixed) {
				t.Fatalf("workers=%d tuple %d diverged: %+v", workers, i, rep)
			}
		}
	}
}

// TestSystemFixBatch: the public batch entry point matches sequential Fix.
func TestSystemFixBatch(t *testing.T) {
	sys := paperSystem(t)
	truth := certainfix.StringTuple(
		"Robert", "Brady", "131", "079172485", "2",
		"51 Elm Row", "Edi", "EH7 4AH", "CD")
	inputs := []certainfix.Tuple{paperex.InputT1(), paperex.InputT1()}
	res, err := sys.FixBatchContext(context.Background(), inputs, func(i int) certainfix.User {
		return certainfix.SimulatedUser{Truth: truth}
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sys.FixContext(context.Background(), paperex.InputT1(), certainfix.SimulatedUser{Truth: truth})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if !r.Completed || !r.Tuple.Equal(want.Tuple) || r.Rounds != want.Rounds {
			t.Fatalf("batch result %d diverged: %+v", i, r)
		}
	}
}
