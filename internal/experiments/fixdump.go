package experiments

import (
	"context"
	"fmt"

	"repro/internal/datagen"
	"repro/internal/master"
	"repro/internal/monitor"
	"repro/internal/relation"
)

// FixedOutputs runs the full monitoring pipeline over a generated
// dataset — every dirty tuple fixed with the simulated user through
// monitor.FixBatch on p.Workers — and returns the repaired relation, in
// input order. Without the BDD cache the pipeline is deterministic: for a
// fixed (Dataset, Seed, MasterSize, Tuples, ...) the output is
// byte-identical regardless of p.Workers and p.Shards. The CI scale
// smoke diffs the CSV of two runs (P=1 vs P=8) at |Dm| = 100k to pin
// exactly that; TestFixOutputShardInvariance pins it at test scale.
//
// With p.UpdateBatches > 0 the master first evolves through that many
// storm batches — durably, through the WAL + checkpoint lineage at
// p.WALDir when set — so the dump also pins that the durability layer
// is invisible to fix semantics.
func FixedOutputs(p Params) (*relation.Relation, error) {
	p = p.WithDefaults()
	ds, err := generate(p)
	if err != nil {
		return nil, err
	}
	dm, err := evolveMaster(ds, p)
	if err != nil {
		return nil, err
	}
	m, err := monitor.New(ds.Sigma, dm, monitor.Config{})
	if err != nil {
		return nil, err
	}
	userFor := func(i int) monitor.User { return monitor.SimulatedUser{Truth: ds.Truths[i]} }
	results, err := m.FixBatch(context.TODO(), ds.Inputs, userFor, p.Workers)
	if err != nil {
		return nil, fmt.Errorf("experiments: fix dump: %w", err)
	}
	out := relation.NewRelation(ds.Sigma.Schema())
	for _, res := range results {
		out.MustAppend(res.Tuple)
	}
	return out, nil
}

// evolveMaster applies p.UpdateBatches deterministic storm batches to the
// dataset's master: through the durable lineage at p.WALDir when set
// (log, checkpoint, fsync — the production write path), in memory
// otherwise. The storm is seeded from p.Seed, so the evolved master — and
// every fix against it — is identical either way on a fresh directory.
func evolveMaster(ds *datagen.Dataset, p Params) (*master.Data, error) {
	if p.UpdateBatches <= 0 && p.WALDir == "" {
		return ds.Master, nil
	}
	storm := datagen.UpdateStorm(ds, p.Seed, p.UpdateBatches, 4, 1)
	if p.WALDir == "" {
		dm := ds.Master
		for i, b := range storm {
			next, err := dm.ApplyDelta(b.Adds, b.Deletes)
			if err != nil {
				return nil, fmt.Errorf("experiments: update batch %d: %w", i, err)
			}
			dm = next
		}
		return dm, nil
	}
	dur, err := master.OpenDurable(p.WALDir, func() (*master.Data, error) { return ds.Master, nil },
		ds.Sigma, master.DurableOptions{})
	if err != nil {
		return nil, fmt.Errorf("experiments: open lineage %s: %w", p.WALDir, err)
	}
	for i, b := range storm {
		if _, err := dur.Apply(b.Adds, b.Deletes); err != nil {
			dur.Close()
			return nil, fmt.Errorf("experiments: update batch %d: %w", i, err)
		}
	}
	head := dur.Current()
	if err := dur.Close(); err != nil {
		return nil, fmt.Errorf("experiments: close lineage: %w", err)
	}
	return head, nil
}
