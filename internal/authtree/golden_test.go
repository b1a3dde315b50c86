package authtree

import (
	"bytes"
	"encoding/json"
	"flag"
	"math/rand"
	"os"
	"testing"

	"repro/internal/relation"
)

// The goldens in testdata/golden.json were written by this file running at
// the commit before the tree was paged (f037e95, one node per tuple): roots
// are compared with those bytes, not with what the code under test says about
// itself. The proofs were re-recorded, roots untouched, when a proof's wire
// form became the compact base64 layout; they pin that layout. -update
// rewrites them and is for a change that means to break compatibility.
var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.json")

const goldenPath = "testdata/golden.json"

type golden struct {
	// Roots are Build's roots over the first n golden tuples.
	Roots map[int]Hash `json:"roots"`
	// DeltaRoot is the root after goldenProgram edited the 1,000-tuple tree.
	DeltaRoot Hash `json:"delta_root"`
	// Proofs are the JSON proofs of five tuples under the 1,000-tuple root:
	// contents held 3 times, once, 7 times, once and once, behind spines of
	// 22, 12, 24, 10 and 20 siblings, of which 11, 1, 0, 0 and 10 are empty
	// subtrees. The leaves of the three contents held once are elided.
	Proofs map[int]json.RawMessage `json:"proofs"`
}

var (
	goldenSizes  = []int{0, 1, 2, 17, 100, 1_000, 5_000}
	goldenProofs = []int{0, 1, 999, 2, 29}
)

// goldenTuples mixes contents held many times (randTuple's small domain) with
// mostly distinct ones.
func goldenTuples(n int) []relation.Tuple {
	rng := rand.New(rand.NewSource(2026))
	tuples := make([]relation.Tuple, n)
	for i := range tuples {
		tuples[i] = randTuple(rng)
		if i%3 != 0 {
			tuples[i][1] = relation.Int(int64(rng.Intn(n)))
		}
	}
	return tuples
}

// goldenProgram removes every 7th tuple and inserts 50 new ones.
func goldenProgram(t *testing.T, tr *Tree, tuples []relation.Tuple) *Tree {
	for i := 0; i < len(tuples); i += 7 {
		var ok bool
		if tr, ok = tr.Remove(tuples[i]); !ok {
			t.Fatalf("golden program: tuple %d not committed", i)
		}
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 50; i++ {
		tu := randTuple(rng)
		tu[1] = relation.Int(int64(1_000_000 + i))
		tr = tr.Insert(tu)
	}
	return tr
}

func TestGoldenRootsAndProofs(t *testing.T) {
	got := golden{Roots: map[int]Hash{}, Proofs: map[int]json.RawMessage{}}
	for _, n := range goldenSizes {
		got.Roots[n] = Build(mustRel(t, goldenTuples(n))).Root()
	}
	tuples := goldenTuples(1_000)
	tr := Build(mustRel(t, tuples))
	for _, i := range goldenProofs {
		p, ok := tr.Prove(tuples[i])
		if !ok {
			t.Fatalf("tuple %d not provable", i)
		}
		b, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		got.Proofs[i] = b
	}
	got.DeltaRoot = goldenProgram(t, tr, tuples).Root()

	if *updateGolden {
		b, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want golden
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	for _, n := range goldenSizes {
		if got.Roots[n] != want.Roots[n] {
			t.Errorf("root over %d tuples = %v, recorded %v", n, got.Roots[n], want.Roots[n])
		}
	}
	if got.DeltaRoot != want.DeltaRoot {
		t.Errorf("root after the delta program = %v, recorded %v", got.DeltaRoot, want.DeltaRoot)
	}
	// The recorded proofs are held to the node tree's, not only to the bytes
	// the code under test wrote.
	var old *oldNode
	for _, tu := range tuples {
		old = oldInsert(old, Key(tu), Sum(tu), 0)
	}
	for _, i := range goldenProofs {
		var compact bytes.Buffer
		if err := json.Compact(&compact, want.Proofs[i]); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Proofs[i], compact.Bytes()) {
			t.Errorf("proof of tuple %d =\n%s\nrecorded\n%s", i, got.Proofs[i], compact.Bytes())
		}
		var p Proof
		if err := json.Unmarshal(want.Proofs[i], &p); err != nil {
			t.Fatal(err)
		}
		if err := VerifyInclusion(want.Roots[1_000], tuples[i], &p); err != nil {
			t.Errorf("recorded proof of tuple %d: %v", i, err)
		}
		if wp, _ := oldProve(old, Key(tuples[i]), Sum(tuples[i])); !sameProof(&p, wp) {
			t.Errorf("recorded proof of tuple %d = %+v, the node tree's %+v", i, p, wp)
		}
	}
}
