package discover_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/discover"
	"repro/internal/relation"
)

// randomMaster generates a relation with planted functional structure: a
// hidden entity id drives some columns (functions of the id agree with
// each other), others are independent draws from small domains, and an
// optional noise rate corrupts cells to unique garbage.
func randomMaster(rng *rand.Rand, noise float64) *relation.Relation {
	arity := 4 + rng.Intn(4)
	n := 150 + rng.Intn(150)
	entities := 10 + rng.Intn(40)
	names := make([]string, arity)
	for a := range names {
		names[a] = fmt.Sprintf("a%d", a)
	}
	rel := relation.NewRelation(relation.StringSchema("Rand", names...))
	// Column modes: derived from the entity id (mod a per-column
	// cardinality, so derived columns determine each other when their
	// cardinality divides evenly) or independent random.
	derived := make([]bool, arity)
	card := make([]int, arity)
	for a := 0; a < arity; a++ {
		derived[a] = rng.Intn(3) > 0
		card[a] = 2 + rng.Intn(entities)
	}
	garbage := 0
	for i := 0; i < n; i++ {
		h := rng.Intn(entities)
		t := make(relation.Tuple, arity)
		for a := 0; a < arity; a++ {
			var v string
			if derived[a] {
				v = fmt.Sprintf("d%d_%d", a, h%card[a])
			} else {
				v = fmt.Sprintf("r%d_%d", a, rng.Intn(card[a]))
			}
			if noise > 0 && rng.Float64() < noise {
				garbage++
				v = fmt.Sprintf("garbage_%d", garbage)
			}
			t[a] = relation.String(v)
		}
		rel.MustAppend(t)
	}
	return rel
}

// The postings miner must be output-identical to the naive oracle for
// every worker count, on clean and dirty masters, exact and weighted: the
// master's oracle pattern, applied to discovery.
func TestPostingsMinerMatchesNaiveOracle(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		for _, cfg := range []struct {
			name    string
			noise   float64
			minConf float64
		}{
			{"exact", 0, 0},
			{"weighted", 0.04, 0.85},
		} {
			rng := rand.New(rand.NewSource(seed))
			rel := randomMaster(rng, cfg.noise)
			opts := discover.Options{MaxLHS: 2, MinSupport: 4, MinConfidence: cfg.minConf}
			want := discover.Dependencies(rel, opts)
			for _, workers := range []int{1, 2, 7, 16} {
				popts := opts
				popts.Workers = workers
				got := discover.Mine(rel, popts)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d %s workers=%d: postings miner diverged from oracle\n got %+v\nwant %+v",
						seed, cfg.name, workers, got, want)
				}
			}
			if t.Failed() {
				return
			}
		}
	}
}

// Mine (which builds its own snapshot) must agree with the oracle too.
func TestMineMatchesNaiveOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	rel := randomMaster(rng, 0.05)
	opts := discover.Options{MaxLHS: 2, MinSupport: 4, MinConfidence: 0.8}
	got := discover.Mine(rel, opts)
	want := discover.Dependencies(rel, opts)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Mine diverged from oracle\n got %+v\nwant %+v", got, want)
	}
}

// noisyFDRelation builds n rows with the exact dependency a0 → a1 and
// then corrupts the a1 cell of the first ceil(rate·n) rows to unique
// garbage. Higher rates corrupt a superset of the rows lower rates do, so
// mined confidence must be monotone non-increasing in the rate.
func noisyFDRelation(n int, rate float64) *relation.Relation {
	rel := relation.NewRelation(relation.StringSchema("FD", "a0", "a1", "a2"))
	corrupt := int(rate * float64(n))
	for i := 0; i < n; i++ {
		key := i % 40
		b := fmt.Sprintf("f%d", key*3)
		if i < corrupt {
			b = fmt.Sprintf("garbage_%d", i)
		}
		rel.MustAppend(relation.Tuple{
			relation.String(fmt.Sprintf("k%d", key)),
			relation.String(b),
			relation.String(fmt.Sprintf("x%d", i%7)),
		})
	}
	return rel
}

func findDep(deps []discover.Candidate, lhs, rhs int) (discover.Candidate, bool) {
	for _, c := range deps {
		if len(c.LHS) == 1 && c.LHS[0] == lhs && c.RHS == rhs {
			return c, true
		}
	}
	return discover.Candidate{}, false
}

// Weighted confidence must decrease monotonically as injected noise
// grows, and equal exactly 1 on the clean relation.
func TestWeightedConfidenceMonotoneInNoise(t *testing.T) {
	const n = 400
	rates := []float64{0, 0.05, 0.1, 0.2}
	prev := 1.1
	for _, rate := range rates {
		rel := noisyFDRelation(n, rate)
		deps := discover.Mine(rel, discover.Options{MaxLHS: 1, MinSupport: 4, MinConfidence: 0.5})
		c, ok := findDep(deps, 0, 1)
		if !ok {
			t.Fatalf("rate %v: dependency a0 → a1 not mined (deps: %+v)", rate, deps)
		}
		if rate == 0 && (c.Confidence != 1 || c.Violations != 0) {
			t.Fatalf("clean relation: confidence %v violations %d, want exactly 1 and 0", c.Confidence, c.Violations)
		}
		if c.Confidence >= prev && rate > 0 {
			t.Fatalf("rate %v: confidence %v not strictly below previous %v", rate, c.Confidence, prev)
		}
		prev = c.Confidence
	}
}
