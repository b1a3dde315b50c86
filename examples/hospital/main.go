// Hospital data monitoring: the paper's motivating scenario (§1) on the
// synthetic HOSP dataset — a stream of hospital-measure records is
// checked at the point of entry; each record is guided to a certain fix
// with a couple of rounds of (simulated) user interaction.
//
// Run with: go run ./examples/hospital
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/datagen"
	"repro/pkg/certainfix"
)

func main() {
	// Generate a HOSP world: 1000 master records, 60 incoming records,
	// 30% matching master entities, 20% of attribute values corrupted.
	ds, err := datagen.Hosp(datagen.Config{
		Seed: 11, MasterSize: 1000, Tuples: 60, DupRate: 0.3, NoiseRate: 0.2,
	})
	if err != nil {
		log.Fatal(err)
	}
	sys, err := certainfix.New(ds.Sigma, ds.Master.Relation())
	if err != nil {
		log.Fatal(err)
	}

	schema := sys.Schema()
	best := sys.Regions()[0]
	fmt.Printf("monitoring %d incoming records against |Dm| = %d\n", len(ds.Inputs), ds.Master.Len())
	fmt.Printf("users are first asked to confirm: %v\n\n", best.ZSet.Names(schema))

	roundHist := map[int]int{}
	totalAuto := 0
	for i := range ds.Inputs {
		res, err := sys.FixContext(context.Background(), ds.Inputs[i], certainfix.SimulatedUser{Truth: ds.Truths[i]})
		if err != nil {
			log.Fatal(err)
		}
		roundHist[res.Rounds]++
		totalAuto += res.AutoFixed.Len()
		if i < 3 { // show the first few
			fmt.Printf("record %d: %d round(s), rules fixed %v\n",
				i, res.Rounds, res.AutoFixed.Names(schema))
		}
	}

	fmt.Println("\nrounds-to-fix histogram:")
	for k := 1; k <= 5; k++ {
		if roundHist[k] > 0 {
			fmt.Printf("  %d round(s): %3d records\n", k, roundHist[k])
		}
	}
	fmt.Printf("rules validated %d attribute values without user effort\n", totalAuto)
}
