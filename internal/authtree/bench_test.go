package authtree

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/relation"
)

// benchTuples is the benchmarks' relation: n distinct tuples of two random
// words around their position.
func benchTuples(n int) []relation.Tuple {
	rng := rand.New(rand.NewSource(11))
	tuples := make([]relation.Tuple, n)
	for i := range tuples {
		tuples[i] = relation.Tuple{
			relation.String(randWord(rng)),
			relation.Int(int64(i)),
			relation.String(randWord(rng)),
		}
	}
	return tuples
}

// benchTree builds an n-tuple tree once per benchmark; proofs are
// generated and verified against tuples spread across it.
func benchTree(b *testing.B, n int) (*Tree, []relation.Tuple) {
	b.Helper()
	tuples := benchTuples(n)
	tr := New()
	for _, tu := range tuples {
		tr = tr.Insert(tu)
	}
	return tr, tuples
}

func randWord(rng *rand.Rand) string {
	const letters = "abcdefghijklmnop"
	w := make([]byte, 4+rng.Intn(8))
	for i := range w {
		w[i] = letters[rng.Intn(len(letters))]
	}
	return string(w)
}

// BenchmarkProofGen measures Prove on a 10k-tuple tree — the per-witness
// cost a fix response pays when the master is authenticated.
func BenchmarkProofGen(b *testing.B) {
	tr, tuples := benchTree(b, 10_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := tr.Prove(tuples[i%len(tuples)]); !ok {
			b.Fatal("Prove failed")
		}
	}
}

// BenchmarkProofVerify measures the client side: VerifyInclusion with no
// tree in hand, the cost an untrusting verifier pays per witness.
func BenchmarkProofVerify(b *testing.B) {
	tr, tuples := benchTree(b, 10_000)
	root := tr.Root()
	proofs := make([]*Proof, len(tuples))
	for i, tu := range tuples {
		p, ok := tr.Prove(tu)
		if !ok {
			b.Fatal("Prove failed")
		}
		proofs[i] = p
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(tuples)
		if err := VerifyInclusion(root, tuples[j], proofs[j]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProofJSON measures a proof's wire form on the 100k-tuple tree:
// one json.Marshal, what a fix response pays per witnessed master tuple,
// and one json.Unmarshal, what a verifying client pays, cycling through
// 1,000 proofs spread across the tree. B/proof is their mean JSON size.
func BenchmarkProofJSON(b *testing.B) {
	tuples := benchTuples(100_000)
	rel, err := relation.FromTuples(testSchema, tuples)
	if err != nil {
		b.Fatal(err)
	}
	tr := Build(rel)
	proofs := make([]*Proof, 1_000)
	for i := range proofs {
		var ok bool
		if proofs[i], ok = tr.Prove(tuples[i*len(tuples)/len(proofs)]); !ok {
			b.Fatal("Prove failed")
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	wireBytes := 0
	for i := 0; i < b.N; i++ {
		wire, err := json.Marshal(proofs[i%len(proofs)])
		if err != nil {
			b.Fatal(err)
		}
		var p Proof
		if err := json.Unmarshal(wire, &p); err != nil {
			b.Fatal(err)
		}
		wireBytes += len(wire)
	}
	b.ReportMetric(float64(wireBytes)/float64(b.N), "B/proof")
}

// BenchmarkAuthBuild measures the from-scratch commitment of a 100k-tuple
// relation — what first boot, recovery and follower bootstrap pay — with
// GOMAXPROCS pinned to 1 and to 2, and what the built tree keeps: live-B/tuple
// is the heap a tree holds after a collection, nodes and page runs together.
func BenchmarkAuthBuild(b *testing.B) {
	tuples := benchTuples(100_000)
	rel, err := relation.FromTuples(testSchema, tuples)
	if err != nil {
		b.Fatal(err)
	}
	for _, procs := range []int{1, 2} {
		b.Run(fmt.Sprintf("P=%d", procs), func(b *testing.B) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			b.ReportAllocs()
			var tr *Tree
			for i := 0; i < b.N; i++ {
				if tr = Build(rel); tr.Len() != len(tuples) {
					b.Fatal("short tree")
				}
			}
			b.StopTimer()
			var with, without runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&with)
			counted := tr.Bytes()
			tr = nil
			runtime.GC()
			runtime.ReadMemStats(&without)
			b.ReportMetric(float64(with.HeapAlloc-without.HeapAlloc)/float64(len(tuples)), "live-B/tuple")
			b.ReportMetric(float64(counted)/float64(len(tuples)), "counted-B/tuple")
		})
	}
}
