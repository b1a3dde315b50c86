package master

// The arena round-trip property (ISSUE 6): a snapshot chain that passes
// through serialization — Save → Load → ApplyDelta* — deep-equals the
// purely in-memory lineage at every step, under the same rebuild oracle
// (checkEquiv) the delta chain is held to. The chain re-serializes
// mid-way at random, so overlays accumulated ON TOP of a loaded arena
// (mapped tables + overlay tries) are themselves frozen and re-loaded, and
// the flatten-at-1/4 compaction that rewrites a mapped table on the heap
// is crossed repeatedly (the instances are small, so a few deltas trigger
// it).

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/relation"
)

func TestArenaDeltaEquivalenceProperty(t *testing.T) {
	const totalIterations = 300
	const deltasPerInstance = 8
	iter := 0
	for seed := 0; iter < totalIterations; seed++ {
		rng := rand.New(rand.NewSource(int64(61_000_000 + seed)))
		heap, sigma, rm, vals := randomDeltaInstance(rng)

		// Freeze the build and continue the chain from the loaded arena,
		// with the heap-built lineage advancing in lockstep as the witness.
		loaded := loadArenaOrFatal(t, saveArenaBytes(t, heap, sigma), sigma)

		for step := 0; step < deltasPerInstance && iter < totalIterations; step++ {
			adds, deletes := randomDelta(rng, loaded.Len(), rm.Arity(), vals)
			ctx := fmt.Sprintf("seed %d step %d", seed, step)

			nextLoaded, err := loaded.ApplyDelta(adds, deletes)
			if err != nil {
				t.Fatalf("%s: ApplyDelta on loaded chain: %v", ctx, err)
			}
			nextHeap, err := heap.ApplyDelta(adds, deletes)
			if err != nil {
				t.Fatalf("%s: ApplyDelta on heap chain: %v", ctx, err)
			}
			iter++

			// Same materialized relation, tuple by tuple.
			if nextLoaded.Len() != nextHeap.Len() {
				t.Fatalf("%s: loaded chain has %d tuples, heap chain %d", ctx, nextLoaded.Len(), nextHeap.Len())
			}
			for i := 0; i < nextHeap.Len(); i++ {
				if !nextLoaded.Tuple(i).Equal(nextHeap.Tuple(i)) {
					t.Fatalf("%s: tuple %d = %v, heap chain %v", ctx, i, nextLoaded.Tuple(i), nextHeap.Tuple(i))
				}
			}

			// Deep-equality against the from-scratch rebuild, and probe
			// agreement between the two lineages.
			checkEquiv(t, ctx+" (loaded chain)", nextLoaded, sigma)
			checkProbesAgree(t, ctx, nextHeap, nextLoaded, sigma, vals, 4)

			// The arena backing must survive the derivation.
			if !nextLoaded.MemStats().ArenaBacked {
				t.Fatalf("%s: derived snapshot lost its arena backing", ctx)
			}

			loaded, heap = nextLoaded, nextHeap

			// Occasionally freeze the current state of BOTH chains and
			// compare the images byte for byte — the serialized merged view
			// must not depend on whether the snapshot's tables were loaded or
			// built — then continue from the re-loaded snapshot.
			if rng.Intn(3) == 0 {
				imgL := saveArenaBytes(t, loaded, sigma)
				imgH := saveArenaBytes(t, heap, sigma)
				if !bytes.Equal(imgL, imgH) {
					t.Fatalf("%s: re-serialized images differ between loaded and heap chains", ctx)
				}
				loaded = loadArenaOrFatal(t, imgL, sigma)
			}
		}

		// End of instance: a final delta through Versioned, proving the
		// publish path works unchanged over an arena-rooted chain.
		v := NewVersioned(loaded)
		adds := []relation.Tuple{randomMasterTuple(rng, rm.Arity(), vals)}
		if _, err := v.Apply(adds, nil); err != nil {
			t.Fatalf("seed %d: Versioned.Apply over loaded chain: %v", seed, err)
		}
		checkEquiv(t, fmt.Sprintf("seed %d versioned head", seed), v.Current(), sigma)
	}
}
