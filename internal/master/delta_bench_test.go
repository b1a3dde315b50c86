package master

// Benchmarks for the versioned-master tentpole: ApplyDelta of a one-tuple
// correction vs a full NewForRules rebuild at |Dm| ∈ {600, 6k, 60k}
// (recorded in benchgate.json at GOMAXPROCS and shard count 1, which
// BenchmarkApplyDelta pins; the acceptance bar is ≥50x at 60k), plus probe
// throughput while deltas publish concurrently.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/paperex"
	"repro/internal/relation"
	"repro/internal/rule"
)

// benchMasterRelation synthesizes n master tuples over the paper's Rm
// with realistic cardinalities: shared name/city pools, mostly-unique
// phones and zips.
func benchMasterRelation(n int) (*relation.Relation, *rule.Set) {
	rng := rand.New(rand.NewSource(42))
	sigma := paperex.Sigma0()
	rel := relation.NewRelation(paperex.SchemaRm())
	for i := 0; i < n; i++ {
		rel.MustAppend(benchMasterTuple(rng, i))
	}
	return rel, sigma
}

func benchMasterTuple(rng *rand.Rand, i int) relation.Tuple {
	return relation.StringTuple(
		fmt.Sprintf("FN%d", rng.Intn(200)),
		fmt.Sprintf("LN%d", rng.Intn(500)),
		fmt.Sprintf("%03d", rng.Intn(900)),
		fmt.Sprintf("7%06d", i),
		fmt.Sprintf("07%07d", i),
		fmt.Sprintf("%d Bench St.", i),
		fmt.Sprintf("City%d", rng.Intn(80)),
		fmt.Sprintf("Z%05d", i),
		fmt.Sprintf("%02d/%02d/%02d", 1+rng.Intn(28), 1+rng.Intn(12), rng.Intn(100)),
		[]string{"M", "F"}[rng.Intn(2)],
	)
}

// BenchmarkApplyDelta measures the incremental path: one-tuple add+delete
// published as a single delta against a snapshot of each size.
func BenchmarkApplyDelta(b *testing.B) {
	for _, n := range []int{600, 6_000, 60_000} {
		rel, sigma := benchMasterRelation(n)
		d0 := MustNewForRules(rel, sigma, WithShards(1))
		rng := rand.New(rand.NewSource(7))
		add := []relation.Tuple{benchMasterTuple(rng, n+1)}
		del := []int{n / 2}
		b.Run(fmt.Sprintf("Dm=%d", n), func(b *testing.B) {
			pinProcs(b, 1)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := d0.ApplyDelta(add, del); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRebuild is the stop-the-world alternative ApplyDelta replaces:
// a full NewForRules over the same relation sizes.
func BenchmarkRebuild(b *testing.B) {
	for _, n := range []int{600, 6_000, 60_000} {
		rel, sigma := benchMasterRelation(n)
		b.Run(fmt.Sprintf("Dm=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := NewForRules(rel, sigma); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkProbeUnderUpdate measures probe throughput (MatchIDs +
// CompatibleExists against the currently published snapshot) while a
// background goroutine continuously publishes one-tuple deltas — the
// serving-layer steady state the snapshot design exists for.
func BenchmarkProbeUnderUpdate(b *testing.B) {
	const n = 6_000
	rel, sigma := benchMasterRelation(n)
	v := NewVersioned(MustNewForRules(rel, sigma))
	ru := sigma.Rules()[0] // phi1: (zip ; zip) -> (AC ; AC)
	probes := make([]relation.Tuple, 256)
	for i := range probes {
		t := make(relation.Tuple, sigma.Schema().Arity())
		for j := range t {
			t[j] = relation.String("x")
		}
		t[7] = rel.Tuple(i * (n / len(probes)))[7] // a real zip: indexed hit
		probes[i] = t
	}
	zSet := relation.NewAttrSet(7)

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		rng := rand.New(rand.NewSource(11))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			add := []relation.Tuple{benchMasterTuple(rng, n+i)}
			if _, err := v.Apply(add, []int{rng.Intn(v.Current().Len())}); err != nil {
				b.Error(err)
				return
			}
		}
	}()

	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			snap := v.Current()
			t := probes[i%len(probes)]
			if len(snap.MatchIDs(ru, t)) == 0 {
				// The probed zip may have been deleted by churn; that is
				// fine — the probe still exercised the full path.
				_ = snap.CompatibleExists(ru, t, zSet)
			} else {
				_ = snap.CompatibleExists(ru, t, zSet)
			}
			i++
		}
	})
	b.StopTimer()
	close(stop)
	<-done
}
