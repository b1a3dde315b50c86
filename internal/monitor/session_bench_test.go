package monitor_test

import (
	"context"
	"errors"
	"testing"

	"repro/internal/master"
	"repro/internal/monitor"
	"repro/internal/paperex"
	"repro/internal/relation"
)

// BenchmarkSessionRounds measures the per-round hot path (Provide:
// assertions, consistency check, TransFix cascade, next suggestion,
// dedup merge) by driving multi-round t4 sessions to completion.
func BenchmarkSessionRounds(b *testing.B) {
	sigma := paperex.Sigma0()
	m, err := monitor.New(sigma, master.MustNewForRules(paperex.MasterRelation(), sigma), monitor.Config{})
	if err != nil {
		b.Fatal(err)
	}
	input, truth := paperex.InputT4(), paperex.InputT4()
	user := monitor.SimulatedUser{Truth: truth}

	b.ReportAllocs()
	rounds := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := m.Fix(context.Background(), input, user)
		if err != nil {
			b.Fatal(err)
		}
		rounds += res.Rounds
	}
	b.StopTimer()
	if b.N > 0 {
		b.ReportMetric(float64(rounds)/float64(b.N), "rounds/fix")
	}
}

// TestFixCtxCancellation: Fix and FixBatch observe the context at
// round boundaries.
func TestFixCtxCancellation(t *testing.T) {
	m := newMonitor(t, monitor.Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.Fix(ctx, paperex.InputT1(), monitor.SimulatedUser{Truth: truthT1()}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Fix on cancelled ctx = %v, want context.Canceled", err)
	}
	inputs := []relation.Tuple{paperex.InputT1(), paperex.InputT4()}
	_, err := m.FixBatch(ctx, inputs, func(i int) monitor.User {
		return monitor.SimulatedUser{Truth: inputs[i]}
	}, 2)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("FixBatch on cancelled ctx = %v, want context.Canceled", err)
	}

	// An open context leaves behavior identical to Fix.
	res, err := m.Fix(context.Background(), paperex.InputT1(), monitor.SimulatedUser{Truth: truthT1()})
	if err != nil || !res.Completed {
		t.Fatalf("Fix(Background) res=%+v err=%v", res, err)
	}
}
