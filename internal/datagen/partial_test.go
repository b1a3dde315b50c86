package datagen_test

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/datagen"
	"repro/internal/fix"
	"repro/internal/monitor"
	"repro/internal/relation"
	"repro/internal/rule"
)

// countRoundsHistogram fixes every tuple and returns rounds → count.
func countRoundsHistogram(t *testing.T, ds *datagen.Dataset) map[int]int {
	t.Helper()
	m, err := monitor.New(ds.Sigma, ds.Master, monitor.Config{})
	if err != nil {
		t.Fatal(err)
	}
	hist := map[int]int{}
	for i := range ds.Inputs {
		res, err := m.Fix(context.Background(), ds.Inputs[i], monitor.SimulatedUser{Truth: ds.Truths[i]})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Completed {
			t.Fatalf("tuple %d did not complete", i)
		}
		if !res.Tuple.Equal(ds.Truths[i]) {
			t.Fatalf("tuple %d fixed to %v, truth %v", i, res.Tuple, ds.Truths[i])
		}
		hist[res.Rounds]++
	}
	return hist
}

// TestHospRoundBounds: every hosp tuple completes within 4 rounds (the
// paper's bound) and the framework never miscorrects (checked inside the
// histogram helper: the fixed tuple always equals the truth).
func TestHospRoundBounds(t *testing.T) {
	ds, err := datagen.Hosp(datagen.Config{Seed: 9, MasterSize: 500, Tuples: 150, DupRate: 0.3, NoiseRate: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	hist := countRoundsHistogram(t, ds)
	for rounds := range hist {
		if rounds > 4 {
			t.Fatalf("hosp tuple needed %d rounds (> 4): %v", rounds, hist)
		}
	}
	if hist[1] == 0 || hist[2] == 0 {
		t.Fatalf("expected both 1-round and 2-round tuples: %v", hist)
	}
}

// TestDblpRoundBounds: every dblp tuple completes within 3 rounds.
func TestDblpRoundBounds(t *testing.T) {
	ds, err := datagen.Dblp(datagen.Config{Seed: 9, MasterSize: 500, Tuples: 150, DupRate: 0.3, NoiseRate: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	hist := countRoundsHistogram(t, ds)
	for rounds := range hist {
		if rounds > 3 {
			t.Fatalf("dblp tuple needed %d rounds (> 3): %v", rounds, hist)
		}
	}
}

// TestDblpPartialTuplesPartiallyFixable: a dblp partial truth (fresh
// paper, known authors and venue) lets the rules fix homepages via the
// author columns and venue fields via crossref, but not through the φ7
// paper key.
func TestDblpPartialTuplesPartiallyFixable(t *testing.T) {
	ds, err := datagen.Dblp(datagen.Config{Seed: 4, MasterSize: 300, Tuples: 60, DupRate: 0, NoiseRate: 0, PartialRate: 1})
	if err != nil {
		t.Fatal(err)
	}
	r := ds.Sigma.Schema()
	g := rule.NewDepGraph(ds.Sigma)

	partialFixed := 0
	for _, truth := range ds.Truths {
		// Validate the author and venue-key columns with truth values and
		// see what cascades.
		tup := truth.Clone()
		tup[r.MustPos("hp1")] = relation.Null
		tup[r.MustPos("hp2")] = relation.Null
		zSet := relation.NewAttrSet(r.MustPosList("a1", "a2", "type", "crossref")...)
		fixed, err := fix.TransFix(g, ds.Master, tup, &zSet)
		if err != nil {
			t.Fatal(err)
		}
		if len(fixed) > 0 {
			partialFixed++
			if !tup[r.MustPos("hp1")].Equal(truth[r.MustPos("hp1")]) {
				t.Fatalf("hp1 enrichment wrong: %v vs %v", tup[r.MustPos("hp1")], truth[r.MustPos("hp1")])
			}
		}
	}
	if partialFixed == 0 {
		t.Fatal("partial dblp tuples must be partially fixable")
	}
}

// inMaster reports whether some master tuple carries truth's value of col
// (R and Rm line up column for column in HOSP): a scan of the master's
// cells in that column.
func inMaster(ds *datagen.Dataset, truth relation.Tuple, col string) bool {
	p := ds.Sigma.Schema().MustPos(col)
	for id := range ds.Master.Len() {
		if ds.Master.Cell(id, p).Equal(truth[p]) {
			return true
		}
	}
	return false
}

// TestHospPartialTypeC: re-registered providers carry master facility
// data under fresh ids — validating the phone must recover the address
// cascade while the id probes stay dead.
func TestHospPartialTypeC(t *testing.T) {
	ds, err := datagen.Hosp(datagen.Config{Seed: 12, MasterSize: 400, Tuples: 200, DupRate: 0, NoiseRate: 0, PartialRate: 1})
	if err != nil {
		t.Fatal(err)
	}
	r := ds.Sigma.Schema()
	g := rule.NewDepGraph(ds.Sigma)

	sawTypeC := false
	for _, truth := range ds.Truths {
		// Type-C tuples: id absent from master but phone present.
		if inMaster(ds, truth, "id") || !inMaster(ds, truth, "phn") {
			continue
		}
		sawTypeC = true
		tup := truth.Clone()
		tup[r.MustPos("ST")] = relation.String("WRONG")
		zSet := relation.NewAttrSet(r.MustPosList("phn")...)
		if _, err := fix.TransFix(g, ds.Master, tup, &zSet); err != nil {
			t.Fatal(err)
		}
		if !tup[r.MustPos("ST")].Equal(truth[r.MustPos("ST")]) {
			t.Fatalf("phn cascade failed to fix ST: %v", tup[r.MustPos("ST")])
		}
	}
	if !sawTypeC {
		t.Fatal("generator produced no type-C partials")
	}
}

// TestCorruptDeterministic: the same rng state yields the same noise.
func TestCorruptDeterministic(t *testing.T) {
	mk := func() relation.Value {
		rng := newRand(77)
		return datagen.Corrupt(rng, relation.String("Hello World"), relation.String("foreign"))
	}
	if !mk().Equal(mk()) {
		t.Fatal("Corrupt must be deterministic for a fixed rng state")
	}
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
