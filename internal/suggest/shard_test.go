package suggest_test

import (
	"runtime"
	"testing"

	"repro/internal/master"
	"repro/internal/paperex"
	"repro/internal/relation"
	"repro/internal/suggest"
)

// TestDeriverShardInvariance: a deriver over a sharded master suggests
// identically to one over the unsharded build.
func TestDeriverShardInvariance(t *testing.T) {
	sigma := paperex.Sigma0()
	rel := paperex.MasterRelation()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2)) // the sharded build's worker count
	d := suggest.NewDeriver(sigma, master.MustNewForRules(rel, sigma, master.WithShards(4)))
	if got := d.Master().Shards(); got != 4 {
		t.Fatalf("Shards() = %d, want 4", got)
	}
	plain := suggest.NewDeriver(sigma, master.MustNewForRules(rel, sigma, master.WithShards(1)))
	r := sigma.Schema()
	t1 := paperex.InputT1()
	for _, z := range [][]int{
		r.MustPosList("zip"),
		r.MustPosList("zip", "phn"),
		r.MustPosList("zip", "AC", "str", "city"),
	} {
		zSet := relation.NewAttrSet(z...)
		a, b := d.Suggest(t1, zSet), plain.Suggest(t1, zSet)
		if len(a.S) != len(b.S) {
			t.Fatalf("z=%v: sharded S=%v, unsharded S=%v", z, a.S, b.S)
		}
		for i := range a.S {
			if a.S[i] != b.S[i] {
				t.Fatalf("z=%v: sharded S=%v, unsharded S=%v", z, a.S, b.S)
			}
		}
	}
}
