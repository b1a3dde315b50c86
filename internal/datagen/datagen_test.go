package datagen_test

import (
	"testing"

	"repro/internal/datagen"
	"repro/internal/relation"
	"repro/internal/suggest"
)

func TestHospRulesParse(t *testing.T) {
	sigma := datagen.HospRules()
	if sigma.Len() != 21 {
		t.Fatalf("hosp rules = %d, want 21 (as in §6)", sigma.Len())
	}
	if sigma.Schema().Arity() != 19 {
		t.Fatalf("hosp arity = %d, want 19", sigma.Schema().Arity())
	}
}

func TestDblpRulesParse(t *testing.T) {
	sigma := datagen.DblpRules()
	if sigma.Len() != 16 {
		t.Fatalf("dblp rules = %d, want 16 (as in §6)", sigma.Len())
	}
	if sigma.Schema().Arity() != 12 {
		t.Fatalf("dblp arity = %d, want 12", sigma.Schema().Arity())
	}
}

func TestHospMasterFunctional(t *testing.T) {
	ds, err := datagen.Hosp(datagen.Config{Seed: 1, MasterSize: 400, Tuples: 1})
	if err != nil {
		t.Fatal(err)
	}
	rel := ds.Master.Relation()
	if rel.Len() != 400 {
		t.Fatalf("|Dm| = %d", rel.Len())
	}
	rm := rel.Schema()
	// Master data must be consistent (§2): every rule's (X → B)
	// correspondence is functional inside Dm.
	for _, ru := range ds.Sigma.Rules() {
		seen := map[string]relation.Value{}
		for _, tm := range rel.All() {
			key := tm.Key(ru.LHSM())
			v := tm[ru.RHSM()]
			if prev, ok := seen[key]; ok && !prev.Equal(v) {
				t.Fatalf("rule %s: master violates functionality: key %q maps to %v and %v",
					ru.Name(), key, prev, v)
			}
			seen[key] = v
		}
	}
	_ = rm
}

func TestDblpMasterFunctional(t *testing.T) {
	ds, err := datagen.Dblp(datagen.Config{Seed: 1, MasterSize: 400, Tuples: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, ru := range ds.Sigma.Rules() {
		seen := map[string]relation.Value{}
		for _, tm := range ds.Master.Relation().All() {
			key := tm.Key(ru.LHSM())
			v := tm[ru.RHSM()]
			if prev, ok := seen[key]; ok && !prev.Equal(v) {
				t.Fatalf("rule %s: master violates functionality: key %q maps to %v and %v",
					ru.Name(), key, prev, v)
			}
			seen[key] = v
		}
	}
}

// TestHospRegionSizeMatchesPaper: CompCRegion finds a 2-attribute certain
// region for HOSP — the paper's Exp-1(1) table reports exactly 2.
func TestHospRegionSizeMatchesPaper(t *testing.T) {
	ds, err := datagen.Hosp(datagen.Config{Seed: 7, MasterSize: 300, Tuples: 1})
	if err != nil {
		t.Fatal(err)
	}
	d := suggest.NewDeriver(ds.Sigma, ds.Master)
	cands := d.CompCRegions()
	if len(cands) == 0 {
		t.Fatal("no certain region derived for hosp")
	}
	if got := len(cands[0].Z); got != 2 {
		t.Fatalf("hosp CompCRegion |Z| = %d, want 2 (paper's table)", got)
	}
	g := d.GRegion()
	if len(g.Z) <= len(cands[0].Z) {
		t.Fatalf("hosp GRegion |Z| = %d must exceed CompCRegion's %d", len(g.Z), len(cands[0].Z))
	}
}

// TestDblpRegionSizeMatchesPaper: CompCRegion finds a 5-attribute certain
// region for DBLP — the paper's table reports 5 — and GRegion is larger.
func TestDblpRegionSizeMatchesPaper(t *testing.T) {
	ds, err := datagen.Dblp(datagen.Config{Seed: 7, MasterSize: 300, Tuples: 1})
	if err != nil {
		t.Fatal(err)
	}
	d := suggest.NewDeriver(ds.Sigma, ds.Master)
	cands := d.CompCRegions()
	if len(cands) == 0 {
		t.Fatal("no certain region derived for dblp")
	}
	if got := len(cands[0].Z); got != 5 {
		t.Fatalf("dblp CompCRegion |Z| = %d, want 5 (paper's table)", got)
	}
	g := d.GRegion()
	if len(g.Z) <= len(cands[0].Z) {
		t.Fatalf("dblp GRegion |Z| = %d must exceed CompCRegion's %d", len(g.Z), len(cands[0].Z))
	}
}

func TestDirtyGenerationDeterministic(t *testing.T) {
	cfg := datagen.Config{Seed: 42, MasterSize: 200, Tuples: 50, DupRate: 0.3, NoiseRate: 0.2}
	a, err := datagen.Hosp(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := datagen.Hosp(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Inputs {
		if !a.Inputs[i].Equal(b.Inputs[i]) || !a.Truths[i].Equal(b.Truths[i]) {
			t.Fatalf("generation not deterministic at tuple %d", i)
		}
	}
}

func TestNoiseRateShapesErrors(t *testing.T) {
	low, err := datagen.Hosp(datagen.Config{Seed: 5, MasterSize: 200, Tuples: 200, DupRate: 0.3, NoiseRate: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	high, err := datagen.Hosp(datagen.Config{Seed: 5, MasterSize: 200, Tuples: 200, DupRate: 0.3, NoiseRate: 0.45})
	if err != nil {
		t.Fatal(err)
	}
	if low.ErroneousCells() >= high.ErroneousCells() {
		t.Fatalf("noise must scale errors: low %d, high %d", low.ErroneousCells(), high.ErroneousCells())
	}
	if high.ErroneousTuples() <= low.ErroneousTuples() {
		t.Fatalf("noise must scale erroneous tuples: low %d, high %d", low.ErroneousTuples(), high.ErroneousTuples())
	}
	// Rough calibration: n%=45 over 19 attributes should corrupt nearly
	// every tuple.
	if float64(high.ErroneousTuples()) < 0.9*float64(len(high.Inputs)) {
		t.Fatalf("45%% noise left too many clean tuples: %d/200", high.ErroneousTuples())
	}
}

// TestDupRateControlsMasterMatches: with d% = 1 every truth tuple is a
// master row; with d% = 0 and PartialRate 0 none shares a full key.
func TestDupRateControlsMasterMatches(t *testing.T) {
	all, err := datagen.Dblp(datagen.Config{Seed: 3, MasterSize: 100, Tuples: 40, DupRate: 1, NoiseRate: 0})
	if err != nil {
		t.Fatal(err)
	}
	for i, truth := range all.Truths {
		found := false
		for _, tm := range all.Master.Relation().All() {
			if truth.Equal(tm) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("d%%=1: truth %d not a master row", i)
		}
	}
	none, err := datagen.Dblp(datagen.Config{Seed: 3, MasterSize: 100, Tuples: 40, DupRate: 0, NoiseRate: 0, PartialRate: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i, truth := range none.Truths {
		for _, tm := range none.Master.Relation().All() {
			if truth.Equal(tm) {
				t.Fatalf("d%%=0: truth %d equals a master row", i)
			}
		}
	}
}
