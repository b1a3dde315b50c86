package master

import (
	"testing"

	"repro/internal/relation"
)

func TestMaxShardsBuild(t *testing.T) {
	rel, sigma := shardBenchRelation(1000)
	pinProcs(t, 3)
	d := MustNewForRules(rel, sigma, WithShards(400)) // clamps to 256
	if d.nshards != MaxShards {
		t.Fatalf("nshards = %d, want %d", d.nshards, MaxShards)
	}
	checkTablesAgainstMaps(t, "P=256", d)
	pinProcs(t, 1)
	orc := MustNewForRules(rel, sigma, WithShards(1))
	checkTablesAgainstMaps(t, "P=1", orc)
	for i := 0; i < 1000; i += 37 {
		probe := rel.Tuple(i)
		for _, ru := range sigma.Rules() {
			if got, want := d.MatchIDs(ru, probe), orc.MatchIDs(ru, probe); !eqInts(got, want) {
				t.Fatalf("tuple %d rule %s: %v vs %v", i, ru.Name(), got, want)
			}
		}
	}
}

// TestShardsFollowMasterSize: a build takes one shard per rowsPerShard
// tuples started, within [1, MaxShards], whatever the host. One just past
// the first threshold has P = 2, answers every probe like its one-shard
// oracle, and keeps P through ApplyDelta and an arena round trip.
func TestShardsFollowMasterSize(t *testing.T) {
	for n, want := range map[int]int{0: 1, 1: 1, 32768: 1, 32769: 2, 100000: 4, 1 << 30: MaxShards} {
		if got := shardsFor(n); got != want {
			t.Errorf("shardsFor(%d) = %d, want %d", n, got, want)
		}
	}

	rel, sigma := shardBenchRelation(rowsPerShard + 1)
	d := MustNewForRules(rel, sigma)
	orc := MustNewForRules(rel, sigma, WithShards(1))
	if d.nshards != 2 || d.MemStats().Shards != 2 {
		t.Fatalf("a build over %d tuples has %d shards (MemStats %d), want 2", rel.Len(), d.nshards, d.MemStats().Shards)
	}
	z := relation.NewAttrSet(1)
	for i := range rel.Len() {
		checkProbeEquality(t, "P=2 vs P=1", d, orc, sigma, rel.Tuple(i), z)
	}

	// Deleting down below the threshold keeps the lineage's P.
	next, err := d.ApplyDelta([]relation.Tuple{rel.Tuple(0).Clone()}, []int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	loaded := loadArenaOrFatal(t, saveArenaBytes(t, next, sigma), sigma)
	if next.nshards != 2 || loaded.nshards != 2 {
		t.Fatalf("P = %d after a delta, %d after a round trip; want 2", next.nshards, loaded.nshards)
	}
	checkEquiv(t, "P=2 loaded", loaded, sigma)
}
