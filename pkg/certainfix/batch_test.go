package certainfix_test

import (
	"context"
	"errors"
	"reflect"
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

// TestRepairBatchLeavesInputs: a batch repair returns fixed copies — t1's AC
// corrected through zip → s1, t4 (zip not in the master) as it came — and
// never writes to the tuples it was given.
func TestRepairBatchLeavesInputs(t *testing.T) {
	sys := paperSystem(t)
	r := sys.Schema()
	inputs := []certainfix.Tuple{paperex.InputT1(), paperex.InputT2(), paperex.InputT4()}
	got, err := sys.RepairBatchContext(context.Background(), inputs, []int{r.MustPos("zip")}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, rep := range got {
		if rep.Err != nil {
			t.Fatalf("tuple %d: unexpected conflict: %v", i, rep.Err)
		}
	}
	if got[0].Tuple[r.MustPos("AC")].Str() != "131" || len(got[0].Fixed) == 0 {
		t.Fatalf("t1 repaired to %v (fixed %v), want AC = 131", got[0].Tuple, got[0].Fixed)
	}
	if !got[2].Tuple.Equal(paperex.InputT4()) || len(got[2].Fixed) != 0 {
		t.Fatalf("t4 must come back unchanged, got %v (fixed %v)", got[2].Tuple, got[2].Fixed)
	}
	for i, want := range []certainfix.Tuple{paperex.InputT1(), paperex.InputT2(), paperex.InputT4()} {
		if !inputs[i].Equal(want) {
			t.Fatalf("RepairBatchContext mutated input %d: %v", i, inputs[i])
		}
	}
}

// TestRepairBatchConflict: a tuple whose validated values expose a rule
// conflict (t3: zip → s1 against phone → s2) is reported in place, gets no
// partial fix, and is left exactly as it was given — certainty first.
func TestRepairBatchConflict(t *testing.T) {
	sys := paperSystem(t)
	r := sys.Schema()
	inputs := []certainfix.Tuple{paperex.InputT3()}
	got, err := sys.RepairBatchContext(context.Background(), inputs, r.MustPosList("zip", "AC", "phn", "type"), 1)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Err == nil || got[0].Tuple != nil || len(got[0].Fixed) != 0 {
		t.Fatalf("conflicted tuple must be reported without a fix, got %+v", got[0])
	}
	if !inputs[0].Equal(paperex.InputT3()) {
		t.Fatalf("conflicted tuple must stay unchanged, got %v", inputs[0])
	}
}

// TestSystemFixBatch: the public batch entry point is byte-identical to a
// sequential FixContext loop at every worker count — whole Results,
// PerRound, Provenance and Epoch included — over a HOSP mix of master
// duplicates and fresh entities.
func TestSystemFixBatch(t *testing.T) {
	g := generate(t, "hosp", 60)
	inputs := g.ds.Inputs
	userFor := func(i int) certainfix.User { return certainfix.SimulatedUser{Truth: g.ds.Truths[i]} }
	want := make([]certainfix.Result, len(inputs))
	for i, in := range inputs {
		res, err := g.a.FixContext(context.Background(), in, userFor(i))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}
	for _, workers := range []int{1, 2, 8} {
		got, err := g.a.FixBatchContext(context.Background(), inputs, userFor, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d results for %d inputs", workers, len(got), len(want))
		}
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("workers=%d tuple %d diverged from the sequential loop:\n got  %+v\n want %+v", workers, i, got[i], want[i])
			}
		}
	}
}

// TestRepairRejectsMisalignedInput: over the package documentation's
// order/catalog example, a validated position outside R or a tuple of
// another arity is ErrArityMismatch from RepairOnce, and the same error
// for that tuple alone in a batch, never a panic or a validated set that
// names an attribute R does not have.
func TestRepairRejectsMisalignedInput(t *testing.T) {
	r := certainfix.StringSchema("order", "sku", "price", "desc")
	rm := certainfix.StringSchema("catalog", "sku", "price", "desc")
	rules, err := certainfix.ParseRules(r, rm, `
rule price: (sku ; sku) -> (price ; price) when sku != nil
rule desc:  (sku ; sku) -> (desc ; desc)  when sku != nil
`)
	if err != nil {
		t.Fatal(err)
	}
	masterRel := certainfix.NewRelation(rm)
	masterRel.MustAppend(certainfix.StringTuple("s1", "9.99", "widget"))
	sys, err := certainfix.New(rules, masterRel)
	if err != nil {
		t.Fatal(err)
	}
	good := certainfix.StringTuple("s1", "0", "")
	cases := []struct {
		name      string
		t         certainfix.Tuple
		validated []int
	}{
		{"negative position", good, []int{-1}},
		{"short tuple", certainfix.StringTuple("s1"), []int{0}},
		{"position past R", good, []int{0, 7}},
	}
	for _, c := range cases {
		if _, _, _, err := sys.RepairOnce(c.t, c.validated); !errors.Is(err, certainfix.ErrArityMismatch) {
			t.Errorf("RepairOnce, %s: err = %v, want ErrArityMismatch", c.name, err)
		}
		reps, err := sys.RepairBatchContext(context.Background(), []certainfix.Tuple{good, c.t}, c.validated, 2)
		if err != nil {
			t.Fatalf("RepairBatchContext, %s: %v", c.name, err)
		}
		if !errors.Is(reps[1].Err, certainfix.ErrArityMismatch) {
			t.Errorf("RepairBatchContext, %s: tuple err = %v, want ErrArityMismatch", c.name, reps[1].Err)
		}
	}
	// The well-formed tuple beside them still repairs.
	reps, err := sys.RepairBatchContext(context.Background(), []certainfix.Tuple{good, certainfix.StringTuple("s1")}, []int{0}, 2)
	if err != nil || reps[0].Err != nil || !reps[0].Tuple.Equal(certainfix.StringTuple("s1", "9.99", "widget")) {
		t.Fatalf("well-formed tuple beside a short one: %+v, %v", reps[0], err)
	}
}
