package monitor_test

import (
	"context"
	"testing"

	"repro/internal/datagen"
	"repro/internal/master"
	"repro/internal/monitor"
	"repro/internal/paperex"
	"repro/internal/relation"
)

func hospDataset(t testing.TB, tuples int) *datagen.Dataset {
	t.Helper()
	ds, err := datagen.Hosp(datagen.Config{
		Seed: 1, MasterSize: 300, Tuples: tuples, DupRate: 0.3, NoiseRate: 0.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// resultsEqual compares two fix results field by field, including the
// per-round snapshots — "byte-identical" at the semantic level.
func resultsEqual(a, b monitor.Result) bool {
	if !a.Tuple.Equal(b.Tuple) || a.Rounds != b.Rounds || a.Completed != b.Completed {
		return false
	}
	if !a.UserValidated.Equal(b.UserValidated) || !a.AutoFixed.Equal(b.AutoFixed) {
		return false
	}
	if len(a.PerRound) != len(b.PerRound) {
		return false
	}
	for i := range a.PerRound {
		pa, pb := a.PerRound[i], b.PerRound[i]
		if !pa.Tuple.Equal(pb.Tuple) || !pa.UserValidated.Equal(pb.UserValidated) || !pa.AutoFixed.Equal(pb.AutoFixed) {
			return false
		}
		if len(pa.Suggested) != len(pb.Suggested) {
			return false
		}
		for j := range pa.Suggested {
			if pa.Suggested[j] != pb.Suggested[j] {
				return false
			}
		}
	}
	return true
}

// TestFixBatchDeterministic is the acceptance test of the concurrent
// pipeline: FixBatch with N workers must produce results identical to a
// sequential Fix loop over the same inputs, for every worker count.
func TestFixBatchDeterministic(t *testing.T) {
	ds := hospDataset(t, 60)
	m, err := monitor.New(ds.Sigma, ds.Master, monitor.Config{})
	if err != nil {
		t.Fatal(err)
	}

	want := make([]monitor.Result, len(ds.Inputs))
	for i := range ds.Inputs {
		res, err := m.Fix(context.Background(), ds.Inputs[i], monitor.SimulatedUser{Truth: ds.Truths[i]})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}

	userFor := func(i int) monitor.User { return monitor.SimulatedUser{Truth: ds.Truths[i]} }
	for _, workers := range []int{1, 2, 4, 7, 16} {
		got, err := m.FixBatch(context.Background(), ds.Inputs, userFor, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(got), len(want))
		}
		for i := range want {
			if !resultsEqual(got[i], want[i]) {
				t.Fatalf("workers=%d: tuple %d diverged from sequential Fix:\n got  %+v\n want %+v",
					workers, i, got[i], want[i])
			}
		}
	}
}

// TestFixBatchSuggestionCache exercises the CertainFix+ path under the
// worker pool (run with -race to check the shared BDD cache): fixes must
// complete without error and land on the same final tuples as the
// non-cached batch, even though round counts may differ.
func TestFixBatchSuggestionCache(t *testing.T) {
	ds := hospDataset(t, 60)
	plain, err := monitor.New(ds.Sigma, ds.Master, monitor.Config{})
	if err != nil {
		t.Fatal(err)
	}
	plus, err := monitor.New(ds.Sigma, ds.Master, monitor.Config{UseBDD: true})
	if err != nil {
		t.Fatal(err)
	}
	userFor := func(i int) monitor.User { return monitor.SimulatedUser{Truth: ds.Truths[i]} }
	want, err := plain.FixBatch(context.Background(), ds.Inputs, userFor, 4)
	if err != nil {
		t.Fatal(err)
	}
	got, err := plus.FixBatch(context.Background(), ds.Inputs, userFor, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !got[i].Completed || !got[i].Tuple.Equal(want[i].Tuple) {
			t.Fatalf("tuple %d: cached batch diverged: completed=%v\n got  %v\n want %v",
				i, got[i].Completed, got[i].Tuple, want[i].Tuple)
		}
	}
	if hits, _ := plus.CacheStats(); hits == 0 {
		t.Fatal("BDD cache never hit under the batch pipeline")
	}
}

// TestFixBatchErrorPropagates: the first per-tuple error aborts the batch
// after all workers drain, mirroring the internal/parallel contract.
func TestFixBatchErrorPropagates(t *testing.T) {
	m := paperMonitor(t)
	inputs := []relation.Tuple{
		paperex.InputT1(),
		relation.StringTuple("bad"), // wrong arity → error
		paperex.InputT1(),
	}
	userFor := func(i int) monitor.User {
		return monitor.SimulatedUser{Truth: paperex.InputT1()}
	}
	if _, err := m.FixBatch(context.Background(), inputs, userFor, 3); err == nil {
		t.Fatal("want arity error from tuple 1")
	}
}

func paperMonitor(t testing.TB) *monitor.Monitor {
	t.Helper()
	sigma := paperex.Sigma0()
	dm := master.MustNewForRules(paperex.MasterRelation(), sigma)
	m, err := monitor.New(sigma, dm, monitor.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// decliningUser aborts immediately; sessions must terminate, not hang the
// pool.
type decliningUser struct{}

func (decliningUser) Assert(relation.Tuple, []int) ([]int, []relation.Value) { return nil, nil }

func TestFixBatchDecliningUser(t *testing.T) {
	m := paperMonitor(t)
	inputs := []relation.Tuple{paperex.InputT1(), paperex.InputT4()}
	res, err := m.FixBatch(context.Background(), inputs, func(int) monitor.User { return decliningUser{} }, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Completed {
			t.Fatalf("tuple %d: declined fix must not complete", i)
		}
	}
}
