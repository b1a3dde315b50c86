package analysis_test

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/analysis"
	"repro/internal/master"
	"repro/internal/oracle"
	"repro/internal/pattern"
	"repro/internal/relation"
	"repro/internal/rule"
)

// TestConcreteCheckMatchesReference holds the pooled Theorem-4 check to
// oracle.ConcreteVerdict, the check as first written (a map per closure
// round, a premise kept with each late pair): on random (Σ, Dm, row) seeds both must
// return the same OK and, byte for byte, the same Detail, with and without
// coverage, and ConcreteOK must be the verdict's OK. Every seed is checked
// twice on one checker, so a scratch that leaks state from one check into
// the next fails too. The seeds must reach every way a row fails — a
// step-(e) conflict, a step-(g) order-dependent value, an uncovered
// attribute — or the test says which it missed.
func TestConcreteCheckMatchesReference(t *testing.T) {
	seeds := 1500
	if testing.Short() {
		seeds = 500
	}
	kinds := map[string]int{}
	vals := []relation.Value{relation.String("a"), relation.String("b"), relation.String("c")}
	for seed := range seeds {
		rng := rand.New(rand.NewSource(int64(seed)))
		sigma, dm, _ := randomInstance(rng)
		if seed%2 == 1 {
			sigma, dm = denseInstance(rng)
		}
		c := analysis.NewChecker(sigma, sigma.Compile(), dm)
		arity := sigma.Schema().Arity()
		for range 4 {
			z := rng.Perm(arity)[:1+rng.Intn(arity-1)]
			row := make([]relation.Value, len(z))
			for i := range row {
				row[i] = vals[rng.Intn(len(vals))]
			}
			for _, coverage := range []bool{false, true} {
				want := oracle.ConcreteVerdict(sigma, dm, z, row, coverage)
				for range 2 {
					got := c.ConcreteVerdict(z, row, coverage)
					if got != want {
						t.Fatalf("seed %d z=%v row=%v coverage=%v: checker %+v, reference %+v\nΣ:\n%s",
							seed, z, row, coverage, got, want, sigma)
					}
					if ok := c.ConcreteOK(z, row, coverage); ok != want.OK {
						t.Fatalf("seed %d z=%v row=%v coverage=%v: ConcreteOK %v, reference %+v", seed, z, row, coverage, ok, want)
					}
				}
				kinds[verdictKind(want)]++
			}
		}
	}
	t.Logf("verdicts over %d seeds: %v", seeds, kinds)
	for _, k := range []string{"ok", "conflicting", "order-dependent", "not covered"} {
		if kinds[k] == 0 {
			t.Errorf("no seed reached a %q verdict: the generator no longer exercises that step", k)
		}
	}
}

// denseInstance is a (Σ, Dm) with more rules than attributes, one-attribute
// lhs and a master over two values and a few nulls: chains A → C → B beside
// A → B are common, and so are the step-(g) pairs that disagree with what
// the closure validated first.
func denseInstance(rng *rand.Rand) (*rule.Set, *master.Data) {
	nR, nM := 4+rng.Intn(2), 4
	r := relation.StringSchema("R", names("A", nR)...)
	rm := relation.StringSchema("Rm", names("M", nM)...)
	rel := relation.NewRelation(rm)
	for range 3 + rng.Intn(4) {
		tup := make(relation.Tuple, nM)
		for j := range tup {
			tup[j] = relation.String(string(rune('a' + rng.Intn(2))))
			if rng.Intn(8) == 0 {
				// A null master cell matches the null a tuple holds on
				// every attribute not yet validated: only the closure's
				// premise test keeps such a pair from firing.
				tup[j] = relation.Null
			}
		}
		rel.MustAppend(tup)
	}
	sigma := rule.MustNewSet(r, rm)
	for i := range 4 + rng.Intn(5) {
		perm := rng.Perm(nR)
		var tp pattern.Tuple
		if rng.Intn(4) == 0 {
			tp = pattern.MustTuple([]int{perm[2]}, []pattern.Cell{pattern.Neq(relation.String("b"))})
		}
		ru, err := rule.New(fmt.Sprintf("d%d", i), r, rm, perm[:1], []int{rng.Intn(nM)}, perm[1], rng.Intn(nM), tp)
		if err != nil {
			continue
		}
		if err := sigma.Add(ru); err != nil {
			panic(err)
		}
	}
	return sigma, master.MustNewForRules(rel, sigma)
}

func names(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s%d", prefix, i)
	}
	return out
}

// verdictKind names the step a verdict came from.
func verdictKind(v analysis.Verdict) string {
	switch {
	case v.OK:
		return "ok"
	case strings.Contains(v.Detail, "conflicting values"):
		return "conflicting"
	case strings.Contains(v.Detail, "order-dependent"):
		return "order-dependent"
	case strings.Contains(v.Detail, "not covered"):
		return "not covered"
	}
	return v.Detail
}

// TestConcreteCheckConcurrent runs one checker's concrete checks on several
// goroutines at once, each against the reference: the scratch pool must
// hand no state from one check to another in flight, and the checks share
// Σ's one compiled program (run under -race). Some checks must reach step
// (g), whose reachability closes that program, or the test says so.
func TestConcreteCheckConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var stepG atomic.Int64
	for inst := range 20 {
		sigma, dm, _ := randomInstance(rng)
		if inst%2 == 1 {
			sigma, dm = denseInstance(rng)
		}
		c := analysis.NewChecker(sigma, sigma.Compile(), dm)
		vals := []relation.Value{relation.String("a"), relation.String("b")}
		arity := sigma.Schema().Arity()
		var wg sync.WaitGroup
		errs := make(chan string, 4)
		for w := range 4 {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for range 200 {
					z := rng.Perm(arity)[:1+rng.Intn(arity-1)]
					row := make([]relation.Value, len(z))
					for i := range row {
						row[i] = vals[rng.Intn(len(vals))]
					}
					coverage := rng.Intn(2) == 0
					got, want := c.ConcreteVerdict(z, row, coverage), oracle.ConcreteVerdict(sigma, dm, z, row, coverage)
					if got != want {
						errs <- "checker " + got.Detail + ", reference " + want.Detail
						return
					}
					if verdictKind(got) == "order-dependent" {
						stepG.Add(1)
					}
				}
			}(int64(inst*4 + w))
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Fatalf("instance %d: %s", inst, e)
		}
	}
	if stepG.Load() == 0 {
		t.Fatal("no check found an order-dependent value: step (g) went unexercised")
	}
	t.Logf("%d of %d checks failed at step (g)", stepG.Load(), 20*4*200)
}

// TestConcreteOKAllocatesNothing: a warm check that asks for no Detail
// allocates nothing, whether its row is certain, fails for want of
// coverage — the two outcomes region scoring meets on every sample — or
// meets a pair that disagrees with its closure, whose step-(g)
// reachability runs Σ's program in the pooled scratch.
func TestConcreteOKAllocatesNothing(t *testing.T) {
	if raceDetector {
		t.Skip("a -race build's sync.Pool drops scratch at random")
	}
	c := newChecker(t)
	r := c.Sigma().Schema()
	z := r.MustPosList("zip", "phn", "type", "item")
	rows := map[bool][]relation.Value{
		true:  {relation.String("EH7 4AH"), relation.String("079172485"), relation.String("2"), relation.String("CD")},
		false: {relation.String("nowhere"), relation.String("000"), relation.String("2"), relation.String("CD")},
	}
	for want, row := range rows {
		if got := c.ConcreteOK(z, row, true); got != want {
			t.Fatalf("ConcreteOK(%v) = %v, want %v", row, got, want)
		}
		if allocs := testing.AllocsPerRun(100, func() { c.ConcreteOK(z, row, true) }); allocs != 0 {
			t.Errorf("ConcreteOK(%v): %.1f allocs per check, want 0", row, allocs)
		}
	}

	c, z, row := orderDependentRow(t)
	if c.ConcreteOK(z, row, false) {
		t.Fatalf("ConcreteOK(%v) on an order-dependent row passed", row)
	}
	if allocs := testing.AllocsPerRun(100, func() { c.ConcreteOK(z, row, false) }); allocs != 0 {
		t.Errorf("ConcreteOK(%v) at step (g): %.1f allocs per check, want 0", row, allocs)
	}
}

// orderDependentRow returns the first dense instance's checker and row
// that the reference fails at step (g): an order-dependent value, which
// only the reachability over the validators finds.
func orderDependentRow(t *testing.T) (*analysis.Checker, []int, []relation.Value) {
	vals := []relation.Value{relation.String("a"), relation.String("b")}
	for seed := range 200 {
		rng := rand.New(rand.NewSource(int64(seed)))
		sigma, dm := denseInstance(rng)
		arity := sigma.Schema().Arity()
		for range 8 {
			z := rng.Perm(arity)[:1+rng.Intn(arity-1)]
			row := make([]relation.Value, len(z))
			for i := range row {
				row[i] = vals[rng.Intn(len(vals))]
			}
			if verdictKind(oracle.ConcreteVerdict(sigma, dm, z, row, false)) == "order-dependent" {
				return analysis.NewChecker(sigma, sigma.Compile(), dm), z, row
			}
		}
	}
	t.Fatal("no dense instance has an order-dependent row")
	return nil, nil, nil
}
