package master

// Recovery cost at paper scale: open a durable lineage whose checkpoint
// holds a 100k-tuple master and whose WAL retains a 64-delta tail — the
// cold-start price certainfixd pays after a crash or deploy. The arena
// half rides the mmap loader benchmarked in arena_bench_test.go, plus the
// Merkle rebuild that verifies the checkpoint's root; the delta tail adds
// one ApplyDelta and one root check per retained record. GOMAXPROCS and the
// shard count are pinned like there: 1 under the plain name, 4 under P4.

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/relation"
	"repro/internal/wal"
)

func BenchmarkRecovery(b *testing.B)   { benchRecovery(b, 1) }
func BenchmarkRecoveryP4(b *testing.B) { benchRecovery(b, 4) }

func benchRecovery(b *testing.B, p int) {
	pinProcs(b, p)
	const n = 100_000
	const tail = 64
	rel, sigma := benchMasterRelation(n)
	dir := b.TempDir()
	dv, err := OpenDurable(dir, func() (*Data, error) { return NewForRules(rel, sigma, WithShards(p)) }, sigma,
		DurableOptions{Sync: wal.SyncNever, CheckpointEvery: -1})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < tail; i++ {
		add := []relation.Tuple{benchMasterTuple(rng, n+i)}
		if _, err := dv.Apply(add, []int{rng.Intn(n)}); err != nil {
			b.Fatal(err)
		}
	}
	if err := dv.Close(); err != nil {
		b.Fatal(err)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dv, err := OpenDurable(dir, func() (*Data, error) {
			b.Fatal("recovery fell back to a rebuild")
			return nil, nil
		}, sigma, DurableOptions{Sync: wal.SyncNever, CheckpointEvery: -1})
		if err != nil {
			b.Fatal(err)
		}
		if dv.Epoch() != tail {
			b.Fatalf("recovered epoch %d", dv.Epoch())
		}
		dv.Close()
	}
}

// BenchmarkFirstOpen is the first start of a durable lineage at paper scale,
// GOMAXPROCS pinned to 2: OpenDurable on an empty directory — build the
// 100k-tuple base, commit it to its Merkle root, start its checkpoint — and
// Close, which waits for that checkpoint, so the whole of it is inside the op
// and so are its allocations. serve-ms is the part of the op until
// OpenDurable returned: how long a first boot keeps readers waiting.
func BenchmarkFirstOpen(b *testing.B) {
	const n = 100_000
	rel, sigma := benchMasterRelation(n)
	b.Run(fmt.Sprintf("Dm=%d", n), func(b *testing.B) {
		pinProcs(b, 2)
		root := b.TempDir()
		b.ReportAllocs()
		var serve time.Duration
		for i := 0; i < b.N; i++ {
			began := time.Now()
			dv, err := OpenDurable(filepath.Join(root, fmt.Sprint(i)), func() (*Data, error) { return NewForRules(rel, sigma) },
				sigma, DurableOptions{})
			if err != nil {
				b.Fatal(err)
			}
			serve += time.Since(began)
			if err := dv.Close(); err != nil {
				b.Fatal(err)
			}
			if st := dv.Durability(); st.CheckpointFailures != 0 || st.LastCheckpointMs <= 0 {
				b.Fatalf("base checkpoint: %+v", st)
			}
		}
		b.ReportMetric(float64(serve)/float64(time.Millisecond)/float64(b.N), "serve-ms")
	})
}
