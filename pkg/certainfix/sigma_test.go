package certainfix_test

import (
	"context"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/datagen"
	"repro/internal/paperex"
	"repro/pkg/certainfix"
)

// sigmaPositions deep-copies every rule's (X, Xm) lists.
func sigmaPositions(rules *certainfix.Rules) [][2][]int {
	out := make([][2][]int, rules.Len())
	for i, ru := range rules.Rules() {
		out[i] = [2][]int{slices.Clone(ru.LHS()), slices.Clone(ru.LHSM())}
	}
	return out
}

// TestNothingWritesSigma: Rule.LHS and Rule.LHSM hand out the slices the
// rule stores, so building a System and every entry point that reads Σ —
// batch fixing at four workers, sessions suspended and resumed on another
// System, batch repair, Suggest, the region checks and region derivation —
// must leave them as they were parsed. The check runs even when a step
// fails. Under -race a write from a session goroutine also shows as a
// race against the other workers' reads.
func TestNothingWritesSigma(t *testing.T) {
	ctx := context.Background()
	ds, err := datagen.Hosp(datagen.Config{Seed: 1, MasterSize: 1000, Tuples: 40, DupRate: 0.3, NoiseRate: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	sigma0 := paperex.Sigma0()
	for name, rules := range map[string]*certainfix.Rules{"HOSP": ds.Sigma, "Σ0": sigma0} {
		want := sigmaPositions(rules)
		t.Cleanup(func() {
			if got := sigmaPositions(rules); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: Σ's positions changed:\n got  %v\n want %v", name, got, want)
			}
		})
	}
	var a, b *certainfix.System
	for _, sys := range []**certainfix.System{&a, &b} {
		if *sys, err = certainfix.New(ds.Sigma, ds.Master.Relation(), testKey); err != nil {
			t.Fatal(err)
		}
	}
	paper, err := certainfix.New(sigma0, paperex.MasterRelation())
	if err != nil {
		t.Fatal(err)
	}

	inputs := ds.Inputs
	userFor := func(i int) certainfix.User { return certainfix.SimulatedUser{Truth: ds.Truths[i]} }
	if _, err := a.FixBatchContext(ctx, inputs, userFor, 4); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(inputs); i += 4 {
				if err := hopToEnd(ctx, a, b, inputs[i], ds.Truths[i]); err != nil {
					t.Errorf("session %d: %v", i, err)
					return
				}
			}
		}()
	}
	wg.Wait()

	regions := a.Regions()
	if len(regions) == 0 {
		t.Fatal("no certain region derived")
	}
	if _, err := a.RepairBatchContext(ctx, inputs, regions[0].Z, 4); err != nil {
		t.Fatal(err)
	}
	for _, in := range inputs {
		if _, err := a.Suggest(in, regions[0].Z); err != nil {
			t.Fatal(err)
		}
	}

	reg, err := certainfix.NewRegion(paper.Schema(),
		[]string{"zip", "phn", "type", "item"},
		[]map[string]certainfix.Value{
			{"zip": certainfix.String("EH7 4AH"), "phn": certainfix.String("079172485"), "type": certainfix.String("2")},
		})
	if err != nil {
		t.Fatal(err)
	}
	if v, err := paper.Consistent(reg); err != nil || !v.OK {
		t.Fatalf("Consistent = %v, %v", v, err)
	}
	if v, err := paper.CertainRegion(reg); err != nil || !v.OK {
		t.Fatalf("CertainRegion = %v, %v", v, err)
	}
	if _, err := paper.FixContext(ctx, paperex.InputT2(), certainfix.SimulatedUser{Truth: truthT2()}); err != nil {
		t.Fatal(err)
	}
}

// hopToEnd drives one session from begin to its result, suspending it
// after every round and resuming it on the other System.
func hopToEnd(ctx context.Context, a, b *certainfix.System, in, truth certainfix.Tuple) error {
	sess, err := a.Begin(ctx, in)
	if err != nil {
		return err
	}
	for !sess.Done() {
		attrs := sess.Suggested()
		values := make([]certainfix.Value, len(attrs))
		for i, p := range attrs {
			values[i] = truth[p]
		}
		if err := sess.Provide(attrs, values); err != nil {
			return err
		}
		token, err := sess.MarshalBinary()
		if err != nil {
			return err
		}
		if sess, err = b.Resume(ctx, token); err != nil {
			return err
		}
		a, b = b, a
	}
	_ = sess.Result()
	return nil
}
