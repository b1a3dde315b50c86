package datagen

import (
	"math/rand"

	"repro/internal/relation"
)

// DeltaBatch is one master-data update of a storm: tuples to append and
// row ids to delete, in the shape master.ApplyDelta consumes.
type DeltaBatch struct {
	Adds    []relation.Tuple
	Deletes []int
}

// UpdateStorm derives a deterministic sequence of delta batches for the
// dataset's master: every batch appends adds clones of master rows with
// one attribute perturbed by the corrupt model ("the master evolves"),
// and deletes up to dels distinct live row ids. Ids are planned against
// the running cardinality under swap-remove semantics, so the batches
// are valid when applied in order starting from the generated master —
// exactly the workload the durability layer logs, and the load the
// crash-recovery experiments replay. Same (dataset, seed) — same storm.
func UpdateStorm(ds *Dataset, seed int64, batches, adds, dels int) []DeltaBatch {
	rng := rand.New(rand.NewSource(seed))
	n := ds.Master.Len()
	out := make([]DeltaBatch, 0, batches)
	for b := 0; b < batches; b++ {
		var batch DeltaBatch
		for a := 0; a < adds; a++ {
			t := ds.Master.Tuple(rng.Intn(ds.Master.Len()))
			i := rng.Intn(len(t))
			t[i] = Corrupt(rng, t[i], ds.Master.Cell(rng.Intn(ds.Master.Len()), i))
			batch.Adds = append(batch.Adds, t)
		}
		seen := make(map[int]bool)
		for d := 0; d < dels && len(seen) < n; d++ {
			id := rng.Intn(n)
			for seen[id] {
				id = (id + 1) % n
			}
			seen[id] = true
			batch.Deletes = append(batch.Deletes, id)
		}
		n += len(batch.Adds) - len(batch.Deletes)
		out = append(out, batch)
	}
	return out
}
