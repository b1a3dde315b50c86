package master_test

import (
	"testing"

	"repro/internal/master"
	"repro/internal/relation"
)

func minerRel() *relation.Relation {
	schema := relation.StringSchema("T", "a", "b", "c")
	rel := relation.NewRelation(schema)
	rows := [][3]string{
		{"x", "1", "p"},
		{"y", "2", "p"},
		{"x", "1", "q"},
		{"z", "2", "p"},
		{"x", "1", "q"},
	}
	for _, r := range rows {
		rel.MustAppend(relation.Tuple{relation.String(r[0]), relation.String(r[1]), relation.String(r[2])})
	}
	return rel
}

// ColumnIDs must reproduce the relation's equality structure — ids equal
// iff cell values equal — and agree with SymbolValues, for every shard
// count.
func TestColumnIDsEqualityStructure(t *testing.T) {
	rel := minerRel()
	for _, shards := range []int{1, 2, 7, 16} {
		dm := master.New(rel, master.WithShards(shards))
		vals := dm.SymbolValues()
		for col := 0; col < 3; col++ {
			ids := dm.ColumnIDs(col)
			if len(ids) != rel.Len() {
				t.Fatalf("shards=%d col=%d: len %d want %d", shards, col, len(ids), rel.Len())
			}
			for i := 0; i < rel.Len(); i++ {
				if int(ids[i]) >= dm.SymbolCount() {
					t.Fatalf("shards=%d: id %d out of symbol range %d", shards, ids[i], dm.SymbolCount())
				}
				if !vals[ids[i]].Equal(rel.Tuple(i)[col]) {
					t.Fatalf("shards=%d col=%d row=%d: SymbolValues disagrees with cell", shards, col, i)
				}
				for j := i + 1; j < rel.Len(); j++ {
					sameVal := rel.Tuple(i)[col].Equal(rel.Tuple(j)[col])
					sameID := ids[i] == ids[j]
					if sameVal != sameID {
						t.Fatalf("shards=%d col=%d rows %d,%d: value equality %v but id equality %v",
							shards, col, i, j, sameVal, sameID)
					}
				}
			}
		}
	}
}

// A derived snapshot's ColumnIDs reflect the delta, on an index-free
// snapshot as on any other.
func TestColumnIDsSurviveDelta(t *testing.T) {
	rel := minerRel()
	dm := master.New(rel)
	add := relation.Tuple{relation.String("w"), relation.String("3"), relation.String("q")}
	d2, err := dm.ApplyDelta([]relation.Tuple{add}, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	ids := d2.ColumnIDs(0)
	if len(ids) != d2.Len() {
		t.Fatalf("len %d want %d", len(ids), d2.Len())
	}
	vals := d2.SymbolValues()
	for i := 0; i < d2.Len(); i++ {
		if !vals[ids[i]].Equal(d2.Tuple(i)[0]) {
			t.Fatalf("row %d: id does not decode to cell after delta", i)
		}
	}
}
