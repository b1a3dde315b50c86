package discover_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/discover"
	"repro/internal/relation"
)

// loopFixture builds a relation with the dependencies a0 → a1 and
// a0 → a2 and corrupts ~3% of the a1/a2 cells to unique garbage,
// returning the dirty relation and the pristine original.
func loopFixture(n int, seed int64) (dirty, clean *relation.Relation) {
	clean = relation.NewRelation(relation.StringSchema("Loop", "a0", "a1", "a2", "a3"))
	for i := 0; i < n; i++ {
		key := i % 40
		clean.MustAppend(relation.Tuple{
			relation.String(fmt.Sprintf("k%d", key)),
			relation.String(fmt.Sprintf("b%d", key*2)),
			relation.String(fmt.Sprintf("c%d", key%9)),
			relation.String(fmt.Sprintf("z%d", i%5)),
		})
	}
	dirty = clean.Clone()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		for _, col := range []int{1, 2} {
			if rng.Float64() < 0.03 {
				dirty.Tuple(i)[col] = relation.String(fmt.Sprintf("noise_%d_%d", i, col))
			}
		}
	}
	return dirty, clean
}

// The bootstrap loop must repair the injected noise back to the pristine
// cells, report the repairs in its round stats, leave the input relation
// untouched, and end with exact (confidence-1) dependencies.
func TestLoopRepairsInjectedNoise(t *testing.T) {
	dirty, clean := loopFixture(600, 7)
	input := dirty.Clone()
	res, err := discover.Loop(dirty.Schema(), dirty, discover.LoopOptions{
		Options: discover.Options{MaxLHS: 1, MinSupport: 4, MinConfidence: 0.85},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The input must not have been modified.
	for i := 0; i < dirty.Len(); i++ {
		if !dirty.Tuple(i).Equal(input.Tuple(i)) {
			t.Fatalf("Loop modified its input relation at row %d", i)
		}
	}
	// Every corrupted cell must be back to the pristine value.
	for i := 0; i < clean.Len(); i++ {
		if !res.Cleaned.Tuple(i).Equal(clean.Tuple(i)) {
			t.Fatalf("row %d not fully repaired: got %v want %v", i, res.Cleaned.Tuple(i), clean.Tuple(i))
		}
	}
	if len(res.Rounds) == 0 || res.Rounds[0].CellsRepaired == 0 {
		t.Fatalf("round stats should record repairs, got %+v", res.Rounds)
	}
	for _, want := range [][2]int{{0, 1}, {0, 2}} {
		c, ok := findDep(res.Deps, want[0], want[1])
		if !ok {
			t.Fatalf("final deps missing a%d → a%d: %+v", want[0], want[1], res.Deps)
		}
		if c.Confidence != 1 || c.Violations != 0 {
			t.Fatalf("a%d → a%d after repair: confidence %v violations %d, want exact",
				want[0], want[1], c.Confidence, c.Violations)
		}
	}
	if res.Rules.Len() != len(res.Deps) {
		t.Fatalf("rules/deps mismatch: %d vs %d", res.Rules.Len(), len(res.Deps))
	}
}

// Loop output must be deterministic across worker counts.
func TestLoopDeterministicAcrossWorkers(t *testing.T) {
	dirty, _ := loopFixture(400, 11)
	var base *discover.LoopResult
	for _, workers := range []int{1, 2, 7} {
		res, err := discover.Loop(dirty.Schema(), dirty, discover.LoopOptions{
			Options: discover.Options{MaxLHS: 2, MinSupport: 4, MinConfidence: 0.85, Workers: workers},
		})
		if err != nil {
			t.Fatal(err)
		}
		if base == nil {
			base = res
			continue
		}
		if !reflect.DeepEqual(res.Deps, base.Deps) {
			t.Fatalf("workers=%d: deps diverged", workers)
		}
		if !reflect.DeepEqual(res.Rounds, base.Rounds) {
			t.Fatalf("workers=%d: rounds diverged", workers)
		}
		for i := 0; i < res.Cleaned.Len(); i++ {
			if !res.Cleaned.Tuple(i).Equal(base.Cleaned.Tuple(i)) {
				t.Fatalf("workers=%d: cleaned relation diverged at row %d", workers, i)
			}
		}
	}
}

func TestLoopEmptyMaster(t *testing.T) {
	rel := relation.NewRelation(relation.StringSchema("E", "a", "b"))
	res, err := discover.Loop(rel.Schema(), rel, discover.LoopOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rules.Len() != 0 || len(res.Deps) != 0 || len(res.Rounds) != 0 {
		t.Fatalf("empty master should mine nothing: %+v", res)
	}
}

func TestLoopSchemaMismatch(t *testing.T) {
	rel := relation.NewRelation(relation.StringSchema("A", "a", "b"))
	other := relation.StringSchema("B", "x")
	if _, err := discover.Loop(other, rel, discover.LoopOptions{}); err == nil {
		t.Fatal("want schema mismatch error")
	}
}
