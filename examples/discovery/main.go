// Self-bootstrapping rule discovery: mine weighted editing rules from a
// NOISY master relation — no hand-written rules, no clean data — via the
// discover→fix→re-discover loop (certainfix.Discover), then verify the
// mined rule set reproduces the paper's hand-written HOSP rules and
// fixes a dirty record end to end.
//
// The §7 future-work direction ("effective algorithms have to be in
// place for discovering editing rules from sample inputs and master
// data") composed with weighted mining à la "Automatic Weighted Matching
// Rectifying Rule Discovery": mining tolerates dirty evidence by scoring
// each dependency with a confidence weight, the loop majority-repairs
// the master cells that violate high-confidence dependencies, and
// re-mining on the cleaned master sharpens the weights — so the system
// bootstraps both its Σ and a cleaner master from nothing.
//
// Run with: go run ./examples/discovery
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"repro/internal/datagen"
	"repro/pkg/certainfix"
)

func main() {
	// A pristine HOSP world — then corrupt ~3% of the master's cells, so
	// discovery has to work from dirty evidence (the realistic case: if
	// the master were known-perfect and rules known, there would be
	// nothing to bootstrap).
	ds, err := datagen.Hosp(datagen.Config{
		Seed: 21, MasterSize: 600, Tuples: 10, DupRate: 1, NoiseRate: 0.25,
	})
	if err != nil {
		log.Fatal(err)
	}
	pristine := ds.Master.Relation()
	noisy := pristine.Clone()
	rng := rand.New(rand.NewSource(99))
	corrupted := 0
	for i := 0; i < noisy.Len(); i++ {
		for a := 0; a < noisy.Schema().Arity(); a++ {
			if rng.Float64() < 0.03 {
				foreign := pristine.Tuple(rng.Intn(pristine.Len()))[a]
				noisy.Tuple(i)[a] = datagen.Corrupt(rng, noisy.Tuple(i)[a], foreign)
				corrupted++
			}
		}
	}
	fmt.Printf("corrupted %d of %d master cells (%.1f%%)\n",
		corrupted, noisy.Len()*noisy.Schema().Arity(),
		100*float64(corrupted)/float64(noisy.Len()*noisy.Schema().Arity()))

	// Bootstrap: mine weighted dependencies, majority-repair violating
	// cells, re-mine — certainfix.Discover drives the loop.
	schema := certainfix.StringSchema("hosp", fieldNames(ds)...)
	res, err := certainfix.Discover(schema, noisy, certainfix.DiscoverLoopOptions{
		Options: certainfix.DiscoverOptions{
			MaxLHS: 2, MinSupport: 20, MinConfidence: 0.85,
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, rd := range res.Rounds {
		fmt.Printf("round %d: %d dependencies, %d cells repaired, mean confidence %.4f\n",
			rd.Round, rd.Deps, rd.CellsRepaired, rd.MeanConfidence)
	}

	// How much of the injected damage did the loop undo — and did it
	// break anything that was clean?
	repaired, stillDirty, broken := 0, 0, 0
	for i := 0; i < pristine.Len(); i++ {
		for a := 0; a < pristine.Schema().Arity(); a++ {
			wasClean := noisy.Tuple(i)[a].Equal(pristine.Tuple(i)[a])
			isClean := res.Cleaned.Tuple(i)[a].Equal(pristine.Tuple(i)[a])
			switch {
			case !wasClean && isClean:
				repaired++
			case !wasClean && !isClean:
				stillDirty++
			case wasClean && !isClean:
				broken++
			}
		}
	}
	// Overwritten-clean cells are the price of corrupted lhs values: a
	// tuple whose KEY cell was corrupted lands in the wrong group, and
	// majority repair pulls its dependent cells toward the wrong
	// majority. Those rows are exactly the ones user validation catches
	// once the system is live; the bootstrap still nets out well ahead.
	fmt.Printf("loop repaired %d corrupted cells to pristine; %d remain dirty; %d clean cells overwritten (net %d → %d dirty cells)\n",
		repaired, stillDirty, broken, corrupted, stillDirty+broken)

	// The mined set must reproduce the paper's hand-written HOSP rules: a
	// hand-written X → B counts as recovered when a mined dependency
	// derives B from X or a subset of it (the miner reports minimal lhs
	// sets, so it may find a tighter key than the hand-written one).
	hand := datagen.HospRules()
	recovered := 0
	for _, hr := range hand.Rules() {
		if coveredByMined(hr.LHS(), hr.RHS(), res.Deps) {
			recovered++
		} else {
			fmt.Printf("  not recovered: %v\n", hr)
		}
	}
	fmt.Printf("mined rules recover %d/%d hand-written HOSP rules\n", recovered, hand.Len())
	if float64(recovered) < 0.9*float64(hand.Len()) {
		log.Fatalf("recovery %d/%d below the 90%% bar", recovered, hand.Len())
	}

	// Build the repair system entirely from bootstrapped artifacts —
	// mined weighted rules plus the loop-cleaned master — and fix a dirty
	// record.
	sys, err := certainfix.New(res.Rules, res.Cleaned)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nbest certain region from mined rules: validate %v\n",
		sys.Regions()[0].ZSet.Names(schema))

	dirty, truth := ds.Inputs[0], ds.Truths[0]
	fixRes, err := sys.FixContext(context.Background(), dirty, certainfix.SimulatedUser{Truth: truth})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fixed a dirty record in %d round(s)\n", fixRes.Rounds)
	if !fixRes.Tuple.Equal(truth) {
		log.Fatal("record should be fully corrected")
	}
	fmt.Println("record fully matches the ground truth")
}

// coveredByMined reports whether some mined dependency derives rhs from a
// subset of lhs.
func coveredByMined(lhs []int, rhs int, deps []certainfix.MinedDependency) bool {
	for _, d := range deps {
		if d.RHS != rhs {
			continue
		}
		subset := true
		for _, a := range d.LHS {
			in := false
			for _, b := range lhs {
				if a == b {
					in = true
					break
				}
			}
			if !in {
				subset = false
				break
			}
		}
		if subset {
			return true
		}
	}
	return false
}

func fieldNames(ds *datagen.Dataset) []string {
	s := ds.Master.Schema()
	names := make([]string, s.Arity())
	for i := range names {
		names[i] = s.Attr(i).Name
	}
	return names
}
