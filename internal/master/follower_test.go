package master

// Follower replication at the master level: the stats split between
// checkpoint and truncation failures, the ApplyRecord guard ladder
// (skip / apply / gap / divergence), and the convergence property —
// a follower tailing a live leader through TailWAL (what GET /v1/wal
// serves), starting mid-storm so the checkpoint catch-up path runs, must
// end probe-for-probe identical to the leader.

import (
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/relation"
	"repro/internal/wal"
)

// removeFailFS injects wal.FS Remove failures — the transient
// disk-janitoring error that must surface as TruncateFailures, never as
// CheckpointFailures and never as a poisoned writer.
type removeFailFS struct {
	wal.FS
	failing atomic.Bool
}

func (f *removeFailFS) Remove(name string) error {
	if f.failing.Load() {
		return fmt.Errorf("remove %s: injected EIO", name)
	}
	return f.FS.Remove(name)
}

// TestDurableTruncateFailureStatSplit pins the healthz-lies regression:
// a checkpoint whose arena durably renamed but whose WAL truncation
// failed used to count as a CheckpointFailure. It must count as a
// TruncateFailure, advance CheckpointEpoch, and leave Apply working.
func TestDurableTruncateFailureStatSplit(t *testing.T) {
	w := newDurableWorkload(42_000_007, 8)
	fsys := &removeFailFS{FS: wal.OS}
	dir := t.TempDir()
	dv, err := OpenDurable(dir, func() (*Data, error) { return w.base, nil }, w.sigma, w.opts(fsys))
	if err != nil {
		t.Fatal(err)
	}
	defer dv.Close()

	fsys.failing.Store(true)
	for _, d := range w.deltas {
		if _, err := dv.Apply(d.adds, d.deletes); err != nil {
			t.Fatalf("apply with failing truncation: %v", err)
		}
		dv.waitCheckpoint()
	}
	st := dv.Durability()
	if st.TruncateFailures == 0 {
		t.Fatal("failing Remove produced no TruncateFailures")
	}
	if st.CheckpointFailures != 0 {
		t.Fatalf("durable checkpoints reported as failed: CheckpointFailures %d", st.CheckpointFailures)
	}
	if st.CheckpointEpoch == w.base.Epoch() {
		t.Fatal("CheckpointEpoch never advanced despite durable arenas")
	}
	segsStuck := st.WAL.Segments

	// The failure is transient: once Remove works again, an explicit
	// checkpoint truncates everything the stuck ones could not.
	fsys.failing.Store(false)
	if err := dv.Checkpoint(); err != nil {
		t.Fatalf("checkpoint after Remove recovered: %v", err)
	}
	if st := dv.Durability(); st.WAL.Segments >= segsStuck {
		t.Fatalf("retried truncation removed nothing: %d → %d segments", segsStuck, st.WAL.Segments)
	}

	// And the lineage is intact end to end.
	checkState(t, "head after truncate failures", dv.Current(), w.expected[len(w.deltas)])
	checkEquiv(t, "head after truncate failures", dv.Current(), w.sigma)
}

// newReplica starts a follower's lineage at base, retaining history
// snapshots.
func newReplica(base *Data, history int) *Versioned {
	v := NewVersioned(base)
	v.SetHistory(history)
	return v
}

// stamped is the record a writer logs for a delta on the authenticated
// snapshot d — its epoch and the root it produces — and the snapshot the
// delta derives.
func stamped(tb testing.TB, d *Data, adds []relation.Tuple, dels []int) (wal.Record, *Data) {
	tb.Helper()
	next, err := d.ApplyDelta(adds, dels)
	if err != nil {
		tb.Fatal(err)
	}
	root := mustRoot(tb, next)
	return wal.Record{Epoch: next.Epoch(), Adds: adds, Deletes: dels, Root: root[:]}, next
}

// TestRecordRefusalsAreTyped holds recovery and followers to one guarded
// apply: the same bad records are refused with the same typed error by
// OpenDurable over a directory that logs them and by Versioned.ApplyRecord,
// and neither publishes anything. A divergence names the first refused
// epoch — for a log written without roots, the first rootless record. A
// record whose epoch does not follow the head never reaches the delta: the
// log's own contiguity check refuses it on recovery (ErrWALCorrupt), the
// ladder on a follower (ErrReplicaGap).
func TestRecordRefusalsAreTyped(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	d0, sigma, rm, vals := randomDeltaInstance(rng)
	d0.Authenticate()
	adds, dels := randomDelta(rng, d0.Len(), rm.Arity(), vals)
	good, d1 := stamped(t, d0, adds, dels)
	adds2, dels2 := randomDelta(rng, d1.Len(), rm.Arity(), vals)
	next := good.Epoch
	lie := make([]byte, 32)
	for i := range lie {
		lie[i] = 0xAA
	}
	for _, tc := range []struct {
		name            string
		recs            []wal.Record
		wantOpen, wantF error
	}{
		{"inapplicable-delta", []wal.Record{{Epoch: next, Deletes: []int{1 << 20}, Root: lie}}, ErrDivergence, ErrDivergence},
		{"wrong-root", []wal.Record{{Epoch: next, Adds: adds, Deletes: dels, Root: lie}}, ErrDivergence, ErrDivergence},
		// What a lineage logged without authentication holds: valid deltas,
		// no roots. It no longer opens.
		{"no-root", []wal.Record{{Epoch: next, Adds: adds, Deletes: dels}, {Epoch: next + 1, Adds: adds2, Deletes: dels2}},
			ErrDivergence, ErrDivergence},
		{"wrong-epoch", []wal.Record{{Epoch: next + 1, Adds: adds, Deletes: dels, Root: good.Root}}, wal.ErrWALCorrupt, ErrReplicaGap},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			lg, err := wal.Open(dir, wal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, rec := range tc.recs {
				if err := lg.Append(rec); err != nil {
					t.Fatal(err)
				}
			}
			if err := lg.Close(); err != nil {
				t.Fatal(err)
			}
			base := func() (*Data, error) { return MustNewForRules(d0.Relation(), sigma), nil }
			dv, err := OpenDurable(dir, base, sigma, DurableOptions{})
			if !errors.Is(err, tc.wantOpen) {
				if dv != nil {
					dv.Close()
				}
				t.Fatalf("OpenDurable: want %v, got %v", tc.wantOpen, err)
			}
			var de *DivergenceError
			if errors.As(err, &de) && de.Epoch != tc.recs[0].Epoch {
				t.Fatalf("OpenDurable blames epoch %d, want %d: %v", de.Epoch, tc.recs[0].Epoch, err)
			}
			if _, serr := os.Stat(filepath.Join(dir, CheckpointFile)); !errors.Is(serr, fs.ErrNotExist) {
				t.Fatalf("a refused recovery wrote a checkpoint: %v", serr)
			}

			v := newReplica(d0, 4)
			ok, err := v.ApplyRecord(tc.recs[0])
			if ok || !errors.Is(err, tc.wantF) {
				t.Fatalf("ApplyRecord: ok=%v, want %v, got %v", ok, tc.wantF, err)
			}
			if errors.As(err, &de) && de.Epoch != tc.recs[0].Epoch {
				t.Fatalf("ApplyRecord blames epoch %d, want %d: %v", de.Epoch, tc.recs[0].Epoch, err)
			}
			if v.Current() != d0 {
				t.Fatalf("a refused record published epoch %d", v.Epoch())
			}
		})
	}
}

// TestFollowerApplyRecordGuards pins the guard ladder: duplicates are
// skipped, gaps are ErrReplicaGap, an inapplicable delta and any record
// over a lineage without a commitment are ErrDivergence, and Reset
// refuses to move the lineage backwards.
func TestFollowerApplyRecordGuards(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d0, sigma, rm, vals := randomDeltaInstance(rng)
	plain := MustNewForRules(d0.Relation(), sigma)
	d0.Authenticate()
	f := newReplica(d0, 4)
	head := d0.Epoch()

	adds, dels := randomDelta(rng, d0.Len(), rm.Arity(), vals)
	rec, _ := stamped(t, d0, adds, dels)
	ok, err := f.ApplyRecord(rec)
	if err != nil || !ok {
		t.Fatalf("apply head+1: ok=%v err=%v", ok, err)
	}
	if f.Epoch() != head+1 {
		t.Fatalf("follower at epoch %d, want %d", f.Epoch(), head+1)
	}

	// Duplicate (reconnect overlap): skipped, not an error.
	if ok, err := f.ApplyRecord(rec); err != nil || ok {
		t.Fatalf("duplicate record: ok=%v err=%v", ok, err)
	}
	// Gap: typed, recoverable.
	if _, err := f.ApplyRecord(wal.Record{Epoch: head + 5}); !errors.Is(err, ErrReplicaGap) {
		t.Fatalf("gap record: want ErrReplicaGap, got %v", err)
	}
	// Inapplicable delta at the right epoch: divergence, nothing published.
	before := f.Epoch()
	_, err = f.ApplyRecord(wal.Record{Epoch: before + 1, Deletes: []int{1 << 20}, Root: rec.Root})
	var de *DivergenceError
	if !errors.Is(err, ErrDivergence) || !errors.As(err, &de) {
		t.Fatalf("bad delta: want *DivergenceError, got %v", err)
	}
	if f.Epoch() != before {
		t.Fatalf("divergence published a head: epoch %d → %d", before, f.Epoch())
	}
	// A lineage without a commitment has nothing to check a root against:
	// even the writer's own record is refused there.
	u := newReplica(plain, 4)
	if ok, err := u.ApplyRecord(rec); ok || !errors.As(err, &de) || u.Current() != plain {
		t.Fatalf("record on an unauthenticated head: ok=%v err=%v, head epoch %d", ok, err, u.Epoch())
	}
	// Reset must never rewind under readers.
	if err := f.Reset(d0); err == nil {
		t.Fatal("Reset behind the head succeeded")
	}
}

// TestFollowerConvergenceProperty is the replication half of the
// durability proof: a leader applies a random delta storm to a
// DurableVersioned (checkpointing and truncating aggressively) while a
// follower tails it through TailWAL. The follower starts after the storm
// is underway — behind a truncation, so it MUST catch up from the
// leader's checkpoint image — and still converges to a head that is
// tuple-exact and probe-for-probe equivalent.
func TestFollowerConvergenceProperty(t *testing.T) {
	for _, seed := range []int64{43_000_001, 43_000_002, 43_000_003} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			const nDeltas = 40
			w := newDurableWorkload(seed, nDeltas)
			dir := t.TempDir()
			dv, err := OpenDurable(dir, func() (*Data, error) { return w.base, nil }, w.sigma, w.opts(wal.OS))
			if err != nil {
				t.Fatal(err)
			}
			defer dv.Close()
			base := w.base.Epoch()
			last := base + nDeltas

			// First half before the follower exists: CheckpointEvery=2 has
			// truncated the early epochs, so the follower cannot tail from
			// its base and must take the checkpoint path.
			for i := 0; i < nDeltas/2; i++ {
				if _, err := dv.Apply(w.deltas[i].adds, w.deltas[i].deletes); err != nil {
					t.Fatal(err)
				}
			}
			dv.waitCheckpoint()

			f := newReplica(w.base, 4)
			catchUp := func() {
				raw, epoch, err := dv.CheckpointImage()
				if err != nil {
					t.Fatalf("checkpoint image: %v", err)
				}
				img, err := LoadArenaBytes(raw, w.sigma)
				if err != nil {
					t.Fatalf("load checkpoint image: %v", err)
				}
				if img.Epoch() != epoch {
					t.Fatalf("checkpoint image at epoch %d, leader said %d", img.Epoch(), epoch)
				}
				if err := f.Reset(img); err != nil {
					t.Fatalf("reset onto checkpoint: %v", err)
				}
			}

			// Second half concurrently with the tailer.
			storm := make(chan struct{})
			go func() {
				defer close(storm)
				for i := nDeltas / 2; i < nDeltas; i++ {
					if _, err := dv.Apply(w.deltas[i].adds, w.deltas[i].deletes); err != nil {
						t.Errorf("storm apply %d: %v", i, err)
						return
					}
				}
			}()

			caughtUp := 0
			deadline := time.Now().Add(20 * time.Second)
			for f.Epoch() < last {
				if time.Now().After(deadline) {
					t.Fatalf("follower stuck at epoch %d of %d", f.Epoch(), last)
				}
				n, err := dv.TailWAL(f.Epoch(), func(rec wal.Record) error {
					_, aerr := f.ApplyRecord(rec)
					return aerr
				})
				switch {
				case err == nil:
					// The log gave us everything it holds. An empty read
					// while the leader's checkpoint is ahead means the
					// epochs we need were truncated into it — the shipping
					// protocol's catch-up rule (an empty log cannot say
					// "truncated" on its own).
					if n == 0 {
						if _, ckpt, cerr := dv.CheckpointImage(); cerr == nil && ckpt > f.Epoch() {
							catchUp()
							caughtUp++
						}
					}
				case errors.Is(err, wal.ErrTruncated), errors.Is(err, ErrReplicaGap):
					catchUp()
					caughtUp++
				default:
					t.Fatalf("tail at epoch %d: %v", f.Epoch(), err)
				}
			}
			<-storm
			if caughtUp == 0 {
				t.Fatal("follower never took the checkpoint catch-up path")
			}

			if f.Epoch() != dv.Epoch() {
				t.Fatalf("follower epoch %d, leader %d", f.Epoch(), dv.Epoch())
			}
			checkState(t, "converged follower", f.Current(), w.expected[nDeltas])
			checkEquiv(t, "converged follower", f.Current(), w.sigma)
		})
	}
}

// BenchmarkFollowerApply measures replica apply throughput: one op is a
// 256-record catch-up through ApplyRecord, each record's root checked —
// the rate bound on follower lag drain (the shipping decode is benchmarked
// in internal/wal). GOMAXPROCS
// is pinned to 1, and with it the default shard count of the instance.
func BenchmarkFollowerApply(b *testing.B) {
	pinProcs(b, 1)
	rng := rand.New(rand.NewSource(7))
	d0, _, rm, vals := randomDeltaInstance(rng)
	d0.Authenticate()
	const nRecs = 256
	recs := make([]wal.Record, nRecs)
	head := d0
	for i := range recs {
		adds, dels := randomDelta(rng, head.Len(), rm.Arity(), vals)
		recs[i], head = stamped(b, head, adds, dels)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := newReplica(d0, 4)
		for _, r := range recs {
			if ok, err := f.ApplyRecord(r); err != nil || !ok {
				b.Fatalf("apply epoch %d: ok=%v err=%v", r.Epoch, ok, err)
			}
		}
	}
}
