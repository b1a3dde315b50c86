// Quickstart: repair an order-entry tuple against a product catalog.
//
// A tiny end-to-end tour of the public API: define the input and master
// schemas, write two editing rules in the DSL, load master data, and fix
// a dirty tuple two ways — non-interactively (RepairOnce, trusting the
// SKU column) and interactively (Fix, with a simulated user).
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"repro/pkg/certainfix"
)

func main() {
	// Input schema R: what the order-entry form captures.
	orders := certainfix.StringSchema("orders", "sku", "price", "desc", "qty")
	// Master schema Rm: the curated product catalog.
	catalog := certainfix.StringSchema("catalog", "sku", "price", "desc")

	// Editing rules: if the SKU is assured correct and appears in the
	// catalog, price and description are certain fixes. qty has no master
	// counterpart — no rule can (or should) touch it.
	rules, err := certainfix.ParseRules(orders, catalog, `
rule price: (sku ; sku) -> (price ; price) when sku != nil
rule desc:  (sku ; sku) -> (desc ; desc)  when sku != nil
`)
	if err != nil {
		log.Fatal(err)
	}

	masterRel := certainfix.NewRelation(catalog)
	masterRel.MustAppend(
		certainfix.StringTuple("SKU-1001", "19.99", "Espresso beans 1kg"),
		certainfix.StringTuple("SKU-1002", "7.49", "Paper filters (100)"),
		certainfix.StringTuple("SKU-1003", "249.00", "Burr grinder"),
	)

	sys, err := certainfix.New(rules, masterRel)
	if err != nil {
		log.Fatal(err)
	}

	// A dirty order: price fat-fingered, description truncated.
	dirty := certainfix.StringTuple("SKU-1002", "74.9", "Paper filt", "3")
	fmt.Println("dirty:", dirty)

	// Non-interactive: assure the SKU column, apply every certain fix.
	skuPos := orders.MustPos("sku")
	fixed, covered, changed, err := sys.RepairOnce(dirty, []int{skuPos})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("fixed:", fixed)
	fmt.Printf("rules fixed %d attributes; validated set now %v\n",
		len(changed), covered.Names(orders))

	// Interactive: the framework suggests which attributes to confirm
	// (here: sku and qty — qty can only come from the user), then fixes
	// the rest. SimulatedUser stands in for a person, answering with the
	// ground truth.
	truth := certainfix.StringTuple("SKU-1002", "7.49", "Paper filters (100)", "3")
	res, err := sys.FixContext(context.Background(), dirty, certainfix.SimulatedUser{Truth: truth})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("interactive fix finished in %d round(s): %v\n", res.Rounds, res.Tuple)

	// What the system derived up front: the best certain region — the
	// minimal attribute set users must vouch for.
	best := sys.Regions()[0]
	fmt.Printf("best certain region asks users to validate: %v\n", best.ZSet.Names(orders))

	// When answers are not available synchronously — a form, a queue, a
	// network client — drive the fix as a resumable session instead of a
	// callback; see examples/resumable for suspend/resume across
	// processes.
	sess, err := sys.Begin(context.Background(), dirty)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("session starts by asking about positions %v\n", sess.Suggested())
}
