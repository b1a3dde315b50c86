// Paper walkthrough: replays the running example of the paper (Fig. 1,
// Examples 1–13) step by step — the supplier tuples t1–t4, the master
// tuples s1/s2, the rule set Σ0, the conflict on t3, and the interactive
// fix of t1.
//
// Run with: go run ./examples/paperwalkthrough
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/paperex"
	"repro/pkg/certainfix"
)

func main() {
	sigma := paperex.Sigma0()
	sys, err := certainfix.New(sigma, paperex.MasterRelation())
	if err != nil {
		log.Fatal(err)
	}
	schema := sys.Schema()

	fmt.Println("Σ0 (Example 11):")
	fmt.Println(sigma)

	// Example 1: t1 is inconsistent (AC = 020 but city = Edi) — and
	// constraint-based repair cannot tell which side is wrong.
	t1 := paperex.InputT1()
	fmt.Println("\nt1 (dirty):", t1)

	// Example 12: assure t1[zip]; TransFix corrects AC and str and
	// validates city.
	fixed, covered, changed, err := sys.RepairOnce(t1, []int{schema.MustPos("zip")})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("after TransFix with zip assured:", fixed)
	fmt.Printf("rules changed %d attributes; validated: %v\n", len(changed), covered.Names(schema))

	// Example 13: the next suggestion is {phn, type, item}.
	s, err := sys.Suggest(fixed, covered.Positions())
	if err != nil {
		log.Fatal(err)
	}
	var names []string
	for _, p := range s {
		names = append(names, schema.Attr(p).Name)
	}
	fmt.Println("next suggestion (Example 13):", names)

	// Examples 5/10: t3's zip points at s1 while its phone points at s2 —
	// validating both exposes the conflict, which certain-fix semantics
	// refuses to resolve by guessing.
	t3 := paperex.InputT3()
	_, _, _, err = sys.RepairOnce(t3, schema.MustPosList("zip", "AC", "phn", "type"))
	fmt.Println("\nt3 with zip AND phone assured:", err)

	// Example 9: the certain region (zip, phn, type, item) — one
	// interactive round fixes t1 completely.
	truth := certainfix.StringTuple(
		"Robert", "Brady", "131", "079172485", "2",
		"51 Elm Row", "Edi", "EH7 4AH", "CD")
	res, err := sys.FixContext(context.Background(), paperex.InputT1(), certainfix.SimulatedUser{Truth: truth})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ninteractive fix of t1: %d round(s)\n", res.Rounds)
	fmt.Println("final tuple:", res.Tuple)

	// Example 5: nothing applies to t4 — the system never invents values.
	res, err = sys.FixContext(context.Background(), paperex.InputT4(), certainfix.SimulatedUser{Truth: paperex.InputT4()})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nt4 (no master counterpart): %d rounds, rules fixed %d attributes\n",
		res.Rounds, res.AutoFixed.Len())
}
