package monitor_test

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/master"
	"repro/internal/monitor"
	"repro/internal/paperex"
	"repro/internal/relation"
)

// TestNewForRulesShardedMonitor: a monitor over a sharded master
// (master.NewForRules with WithShards) fixes identically to one over the
// unsharded build.
func TestNewForRulesShardedMonitor(t *testing.T) {
	sigma := paperex.Sigma0()
	rel := paperex.MasterRelation()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2)) // the sharded build's worker count
	dm, err := master.NewForRules(rel, sigma, master.WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	if got := dm.Shards(); got != 4 {
		t.Fatalf("Shards() = %d, want 4", got)
	}
	m, err := monitor.New(sigma, dm, monitor.Config{})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := monitor.New(sigma, master.MustNewForRules(rel, sigma, master.WithShards(1)), monitor.Config{})
	if err != nil {
		t.Fatal(err)
	}
	truth := relation.StringTuple(
		"Robert", "Brady", "131", "6884563", "1",
		"51 Elm Row", "Edi", "EH7 4AH", "CD")
	for _, input := range []relation.Tuple{paperex.InputT1(), paperex.InputT2()} {
		a, errA := m.Fix(context.Background(), input, monitor.SimulatedUser{Truth: truth})
		b, errB := plain.Fix(context.Background(), input, monitor.SimulatedUser{Truth: truth})
		if (errA == nil) != (errB == nil) {
			t.Fatalf("error mismatch: sharded %v, unsharded %v", errA, errB)
		}
		if errA != nil {
			continue
		}
		if !a.Tuple.Equal(b.Tuple) || a.Rounds != b.Rounds || a.Completed != b.Completed {
			t.Fatalf("sharded fix %+v differs from unsharded %+v", a, b)
		}
	}
}
