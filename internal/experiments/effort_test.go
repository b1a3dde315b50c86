package experiments_test

import (
	"testing"

	"repro/internal/datagen"
	"repro/internal/experiments"
	"repro/internal/monitor"
)

// benchMix is the benchmark's HOSP traffic (bench/data.go) at |Dm| = 10k.
func benchMix(t *testing.T) *datagen.Dataset {
	t.Helper()
	ds, err := datagen.Hosp(datagen.Config{Seed: 1, MasterSize: 10000, Tuples: 2000, DupRate: 0.3, NoiseRate: 0.2, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestEffortBudget bounds the paper's own metric, user effort per certain
// fix, on the benchmark's mix. Rounds: an entity the master has never seen
// is asked for everything in round 2, not after two rounds of probing one
// candidate key each (2.204 rounds per fix before Suggest read the tuple).
// Attributes: 22,254 were typed over these 2000 inputs then; grounding may
// trade a round for a typed attribute on single tuples but not in sum.
func TestEffortBudget(t *testing.T) {
	stats, err := experiments.MeasureEffort(benchMix(t), monitor.Config{})
	if err != nil {
		t.Fatal(err)
	}
	all := stats.Total
	if all.Wrong != 0 {
		t.Errorf("%d of %d fixes did not complete on their truth", all.Wrong, all.Inputs)
	}
	if got := all.RoundsPerFix(); got > 1.80 {
		t.Errorf("rounds per fix = %.3f, budget 1.80", got)
	}
	if all.Attrs > 22254 {
		t.Errorf("users typed %d attributes (%.3f per fix), 22254 (11.127) before grounding", all.Attrs, all.AttrsPerFix())
	}
	if covered := stats.Classes[2]; covered.Rounds != covered.Inputs || covered.Attrs != 2*covered.Inputs {
		t.Errorf("inputs the master covers: %d rounds and %d attributes over %d fixes, want one round of the 2-attribute region each",
			covered.Rounds, covered.Attrs, covered.Inputs)
	}
}

// TestSuggestionCacheKeepsEffort: Suggest+ reuses a suggestion on a test
// that never looks at the tuple, so what it reuses must not carry another
// tuple's grounding — a cached "ask everything" from an entity outside the
// master would be replayed to a provider the master knows. With the cache
// on, nobody types more or answers more rounds than with it off.
func TestSuggestionCacheKeepsEffort(t *testing.T) {
	ds := benchMix(t)
	off, err := experiments.MeasureEffort(ds, monitor.Config{})
	if err != nil {
		t.Fatal(err)
	}
	on, err := experiments.MeasureEffort(ds, monitor.Config{UseBDD: true})
	if err != nil {
		t.Fatal(err)
	}
	if on.Total.Wrong != 0 {
		t.Errorf("cache on: %d fixes did not complete on their truth", on.Total.Wrong)
	}
	if on.Total.Attrs > off.Total.Attrs || on.Total.Rounds > off.Total.Rounds {
		t.Errorf("cache on: %d attributes, %d rounds; cache off: %d attributes, %d rounds",
			on.Total.Attrs, on.Total.Rounds, off.Total.Attrs, off.Total.Rounds)
	}
}
