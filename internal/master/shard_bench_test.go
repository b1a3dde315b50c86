package master

// Benchmarks for the sharded layout.
//
// BenchmarkShardedBuild measures NewForRules at P=1 on one CPU
// (sequential, unsharded layout) against P=GOMAXPROCS on all of them
// (parallel sharded build). The speedup target (≥ 4x at |Dm| = 1M) is only
// observable on a multi-core host: on a single-CPU container both variants
// are sequential and the benchmark degenerates to measuring routing
// overhead — run locally with MASTER_BENCH_1M=1 on a real machine for
// the headline number. The default sizes keep CI's -benchtime=1x smoke
// cheap.

import (
	"fmt"
	"os"
	"runtime"
	"testing"

	"repro/internal/pattern"
	"repro/internal/relation"
	"repro/internal/rule"
)

// shardBenchRelation fabricates a synthetic master with hosp-like value
// cardinalities: a unique key column, two moderate-cardinality foreign
// keys, and dependent attribute columns.
func shardBenchRelation(n int) (*relation.Relation, *rule.Set) {
	r := relation.StringSchema("R", "key", "fk1", "fk2", "c1", "c2", "c3")
	rm := relation.StringSchema("Rm", "key", "fk1", "fk2", "c1", "c2", "c3")
	sigma := rule.MustNewSet(r, rm,
		rule.MustNew("key-c1", r, rm, []int{0}, []int{0}, 3, 3, pattern.Empty()),
		rule.MustNew("fk1-c2", r, rm, []int{1}, []int{1}, 4, 4, pattern.Empty()),
		rule.MustNew("pair-c3", r, rm, []int{1, 2}, []int{1, 2}, 5, 5, pattern.Empty()),
	)
	rel := relation.NewRelation(rm)
	for i := 0; i < n; i++ {
		fk1 := i % (n/40 + 1)
		fk2 := i % 97
		rel.MustAppend(relation.StringTuple(
			fmt.Sprintf("K%08d", i),
			fmt.Sprintf("F%06d", fk1),
			fmt.Sprintf("G%03d", fk2),
			fmt.Sprintf("c1-%d", fk1),
			fmt.Sprintf("c2-%d", fk2),
			fmt.Sprintf("c3-%d", (fk1+fk2)%1000),
		))
	}
	return rel, sigma
}

// BenchmarkShardedBuild measures the parallel sharded NewForRules against
// the P=1 sequential build. Set MASTER_BENCH_1M=1 to add the |Dm| = 1M
// configuration (the ≥ 4x acceptance measurement; needs a multi-core
// host and a few GiB of memory).
func BenchmarkShardedBuild(b *testing.B) {
	sizes := []int{10_000, 100_000}
	if os.Getenv("MASTER_BENCH_1M") != "" {
		sizes = append(sizes, 1_000_000)
	}
	for _, n := range sizes {
		rel, sigma := shardBenchRelation(n)
		for _, p := range []int{1, runtime.GOMAXPROCS(0)} {
			b.Run(fmt.Sprintf("Dm=%d/P=%d", n, p), func(b *testing.B) {
				pinProcs(b, p)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					d, err := NewForRules(rel, sigma, WithShards(p))
					if err != nil {
						b.Fatal(err)
					}
					if d.Len() != n {
						b.Fatal("bad build")
					}
				}
			})
		}
	}
}

// BenchmarkShardedDelta measures ApplyDelta at a delta size large enough to
// take the structure-parallel application path, GOMAXPROCS and shard count
// pinned to 1 and to 4.
func BenchmarkShardedDelta(b *testing.B) {
	const n = 60_000
	rel, sigma := shardBenchRelation(n)
	extra, _ := shardBenchRelation(n + 512)
	adds := tuplesOf(extra)[n:]
	deletes := make([]int, 256)
	for i := range deletes {
		deletes[i] = i * 7
	}
	for _, p := range []int{1, 4} {
		d := MustNewForRules(rel, sigma, WithShards(p))
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
			pinProcs(b, p)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := d.ApplyDelta(adds, deletes); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRHSValuesMulti measures the value probe of fk2 → c2 on keys
// that match ~200 master tuples, at GOMAXPROCS and shard count pinned to 1
// and to 4. The master is a function on the rule except for one corrupted
// clone under every even key: "uniform" probes the odd keys, answered from
// the bucket's smallest id; "listed" probes the even ones, whose buckets
// the exception table sends to the scan; "enumerate" is MatchIDs on the
// uniform keys, the O(matches) cost the value probe no longer pays. P=4 must
// read like P=1: same time, same allocations.
func BenchmarkRHSValuesMulti(b *testing.B) {
	const n = 20_000
	rel, _ := shardBenchRelation(n)
	for fk2 := 0; fk2 < 97; fk2 += 2 {
		clone := rel.Tuple(fk2).Clone()
		clone[0], clone[4] = relation.String(fmt.Sprintf("X%08d", fk2)), relation.String("c2-typo")
		rel.MustAppend(clone)
	}
	r := relation.StringSchema("R", "key", "fk1", "fk2", "c1", "c2", "c3")
	ru := rule.MustNew("fk2-c2", r, rel.Schema(), []int{2}, []int{2}, 4, 4, pattern.Empty())
	sigma := rule.MustNewSet(r, rel.Schema(), ru)
	for _, p := range []int{1, 4} {
		d := MustNewForRules(rel, sigma, WithShards(p))
		run := func(name string, parity int, probe func(t relation.Tuple) int, want int) {
			b.Run(fmt.Sprintf("P=%d/%s", p, name), func(b *testing.B) {
				pinProcs(b, p)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					// Tuple j carries fk2 = j mod 97: walk the keys of one parity.
					if got := probe(rel.Tuple(2*(i%48) + parity)); got != want {
						b.Fatalf("probe answered %d, want %d", got, want)
					}
				}
			})
		}
		run("uniform", 1, func(t relation.Tuple) int { return len(d.RHSValues(ru, t)) }, 1)
		run("listed", 0, func(t relation.Tuple) int { return len(d.RHSValues(ru, t)) }, 2)
		run("enumerate", 1, func(t relation.Tuple) int { return min(len(d.MatchIDs(ru, t)), n/97) }, n/97)
	}
}
