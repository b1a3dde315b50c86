// DBLP enrichment: beyond fixing wrong values, editing rules enrich
// missing ones (§2, Example 2's eR3 "enrich t2[str, zip]"). Here a
// bibliography entry arrives with empty homepage and venue fields; once
// the paper key is confirmed, the master data fills everything in.
//
// Run with: go run ./examples/dblp
package main

import (
	"fmt"
	"log"

	"repro/internal/datagen"
	"repro/pkg/certainfix"
)

func main() {
	ds, err := datagen.Dblp(datagen.Config{
		Seed: 5, MasterSize: 800, Tuples: 1, DupRate: 1, NoiseRate: 0,
	})
	if err != nil {
		log.Fatal(err)
	}
	sys, err := certainfix.New(ds.Sigma, ds.Master.Relation())
	if err != nil {
		log.Fatal(err)
	}
	schema := sys.Schema()

	// Take a real (master-matching) record and blank out everything the
	// rules can derive: homepages and all venue fields.
	entry := ds.Truths[0].Clone()
	for _, name := range []string{"hp1", "hp2", "btitle", "publisher", "isbn", "crossref", "year"} {
		entry[schema.MustPos(name)] = certainfix.Null
	}
	fmt.Println("incomplete entry:")
	printEntry(schema, entry)

	// The φ7 key (type, a1, a2, ptitle, pages) plus the author columns is
	// exactly what the derived certain region asks for.
	best := sys.Regions()[0]
	fmt.Printf("\nconfirming: %v\n\n", best.ZSet.Names(schema))

	fixed, _, changed, err := sys.RepairOnce(entry, best.Z)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("enriched %d attributes:\n", len(changed))
	printEntry(schema, fixed)

	if !fixed.Equal(ds.Truths[0]) {
		log.Fatal("enrichment should reconstruct the full record")
	}
	fmt.Println("\nenriched entry matches the master record exactly")
}

func printEntry(schema *certainfix.Schema, t certainfix.Tuple) {
	for i := 0; i < schema.Arity(); i++ {
		fmt.Printf("  %-10s %v\n", schema.Attr(i).Name, t[i])
	}
}
