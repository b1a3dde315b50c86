package master

import (
	"testing"
)

func TestMaxShardsBuild(t *testing.T) {
	rel, sigma := shardBenchRelation(1000)
	pinProcs(t, 3)
	d := MustNewForRules(rel, sigma, WithShards(400)) // clamps to 256
	if d.Shards() != MaxShards {
		t.Fatalf("Shards() = %d, want %d", d.Shards(), MaxShards)
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
