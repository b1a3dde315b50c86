package master

// The durability proof for DurableVersioned. The walfault filesystem
// cuts power at swept budget points (written bytes, fsyncs, metadata
// ops) and spill fractions while a randomized delta workload runs; after
// each cut, OpenDurable on the surviving directory must reproduce the
// pre-crash lineage exactly: the recovered head is the in-memory
// expected state at some epoch E with acked ≤ E ≤ applied (SyncAlways
// acks are never lost), checkEquiv proves it probe-for-probe equal to a
// from-scratch rebuild, and applying the remaining deltas lands on the
// same final state the uninterrupted run reaches. Non-crash behaviours —
// clean reopen, checkpoint truncation, ring eviction after recovery,
// typed corruption errors — are pinned by the tests that follow.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/relation"
	"repro/internal/rule"
	"repro/internal/wal"
	"repro/internal/wal/walfault"
)

// durableWorkload is one deterministic delta sequence over a randomized
// (Σ, Dm) instance, with the expected tuple state after every epoch.
type durableWorkload struct {
	base   *Data
	sigma  *rule.Set
	deltas []struct {
		adds    []relation.Tuple
		deletes []int
	}
	// expected[i] is the tuple state after applying i deltas (expected[0]
	// is the base state); epoch of expected[i] is base.Epoch()+i.
	expected [][]relation.Tuple
}

func newDurableWorkload(seed int64, nDeltas int) *durableWorkload {
	rng := rand.New(rand.NewSource(seed))
	d0, sigma, rm, vals := randomDeltaInstance(rng)
	w := &durableWorkload{base: d0, sigma: sigma}
	state := tuplesOf(d0.Relation())
	w.expected = append(w.expected, state)
	for i := 0; i < nDeltas; i++ {
		adds, deletes := randomDelta(rng, len(state), rm.Arity(), vals)
		w.deltas = append(w.deltas, struct {
			adds    []relation.Tuple
			deletes []int
		}{adds, deletes})
		state = shadowApply(state, adds, deletes)
		w.expected = append(w.expected, state)
	}
	return w
}

func (w *durableWorkload) opts(fs wal.FS) DurableOptions {
	return DurableOptions{
		Sync:            wal.SyncAlways,
		SegmentBytes:    256, // force rolls inside the workload
		CheckpointEvery: 2,   // force checkpoints + truncation inside it
		FS:              fs,
	}
}

// run applies every delta through a DurableVersioned in dir, stopping at
// the first error (the simulated power cut). It reports the highest
// epoch whose Apply returned success. Each checkpoint is waited for before
// the next delta, so a budget names the same crash point in every run; the
// interleavings of a checkpoint with later appends are swept phase by phase
// in TestDurableBackgroundCheckpointCrash.
func (w *durableWorkload) run(fs wal.FS, dir string) (acked uint64) {
	dv, err := OpenDurable(dir, func() (*Data, error) { return w.base, nil }, w.sigma, w.opts(fs))
	if err != nil {
		return 0
	}
	defer dv.Close()
	acked = w.base.Epoch()
	for _, d := range w.deltas {
		next, err := dv.Apply(d.adds, d.deletes)
		if err != nil {
			return acked
		}
		acked = next.Epoch()
		dv.waitCheckpoint()
	}
	return acked
}

// checkState asserts d's tuples are exactly want, in order.
func checkState(t *testing.T, ctx string, d *Data, want []relation.Tuple) {
	t.Helper()
	got := tuplesOf(d.Relation())
	if len(got) != len(want) {
		t.Fatalf("%s: %d tuples, want %d", ctx, len(got), len(want))
	}
	for i := range got {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("%s: tuple %d arity mismatch", ctx, i)
		}
		for c := range got[i] {
			if !got[i][c].Equal(want[i][c]) {
				t.Fatalf("%s: tuple %d cell %d: got %v want %v", ctx, i, c, got[i][c], want[i][c])
			}
		}
	}
}

// recoverAndProve reopens dir with the real filesystem and drives the
// full oracle: epoch bounds, tuple-exact state, rebuild equivalence, and
// completion of the remaining lineage to the expected final state.
func (w *durableWorkload) recoverAndProve(t *testing.T, dir string, acked uint64, label string) {
	t.Helper()
	dv, err := OpenDurable(dir, func() (*Data, error) { return w.base, nil }, w.sigma, DurableOptions{CheckpointEvery: 2})
	if err != nil {
		t.Fatalf("%s: recovery failed: %v", label, err)
	}
	defer dv.Close()
	e := dv.Epoch()
	base, last := w.base.Epoch(), w.base.Epoch()+uint64(len(w.deltas))
	if e < acked || e > last {
		t.Fatalf("%s: recovered epoch %d outside [acked %d, applied %d]", label, e, acked, last)
	}
	checkState(t, label+": recovered head", dv.Current(), w.expected[e-base])
	checkEquiv(t, label+": recovered head", dv.Current(), w.sigma)

	// The lineage continues: apply what the crash interrupted and land
	// exactly where the uninterrupted run lands.
	for i := e - base; i < uint64(len(w.deltas)); i++ {
		if _, err := dv.Apply(w.deltas[i].adds, w.deltas[i].deletes); err != nil {
			t.Fatalf("%s: continuing lineage at delta %d: %v", label, i, err)
		}
	}
	if dv.Epoch() != last {
		t.Fatalf("%s: continued lineage ends at epoch %d, want %d", label, dv.Epoch(), last)
	}
	checkState(t, label+": final head", dv.Current(), w.expected[len(w.deltas)])
	checkEquiv(t, label+": final head", dv.Current(), w.sigma)
}

func TestDurableCrashRecoveryProperty(t *testing.T) {
	const nDeltas = 6
	for _, seed := range []int64{41_000_001, 41_000_002} {
		w := newDurableWorkload(seed, nDeltas)

		// Dry run: measure the total budget an uninterrupted run spends.
		probe := walfault.New(wal.OS, -1, 0, 1)
		if acked := w.run(probe, t.TempDir()); acked != w.base.Epoch()+nDeltas {
			t.Fatalf("seed %d: dry run incomplete: acked %d", seed, acked)
		}
		total := probe.Spent()

		// Sweep crash points across the whole budget with a stride that
		// is coprime to typical frame/op sizes, at all three spill
		// fractions; always include the first and last point.
		crashes := 0
		points := []int64{1, total}
		for b := int64(3); b < total; b += 17 {
			points = append(points, b)
		}
		for _, budget := range points {
			for _, sp := range [][2]int{{0, 1}, {1, 2}, {1, 1}} {
				label := fmt.Sprintf("seed=%d budget=%d/%d spill=%d/%d", seed, budget, total, sp[0], sp[1])
				dir := t.TempDir()
				fs := walfault.New(wal.OS, budget, sp[0], sp[1])
				acked := w.run(fs, dir)
				if fs.Crashed() {
					crashes++
				} else if acked != w.base.Epoch()+nDeltas {
					t.Fatalf("%s: no crash yet workload incomplete (acked %d)", label, acked)
				}
				w.recoverAndProve(t, dir, acked, label)
			}
		}
		if crashes == 0 {
			t.Fatalf("seed %d: sweep never crashed", seed)
		}
		t.Logf("seed %d: budget %d, %d crash points proven", seed, total, crashes)
	}
}

func TestDurableCleanReopen(t *testing.T) {
	w := newDurableWorkload(41_000_100, 10)
	dir := t.TempDir()
	if acked := w.run(wal.OS, dir); acked != w.base.Epoch()+10 {
		t.Fatalf("workload incomplete: %d", acked)
	}
	dv, err := OpenDurable(dir, func() (*Data, error) { return w.base, nil }, w.sigma, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer dv.Close()
	if dv.Epoch() != w.base.Epoch()+10 {
		t.Fatalf("reopened at epoch %d", dv.Epoch())
	}
	checkState(t, "clean reopen", dv.Current(), w.expected[10])
	checkEquiv(t, "clean reopen", dv.Current(), w.sigma)
	st := dv.Durability()
	if !st.Recovery.UsedCheckpoint {
		t.Fatal("reopen ignored the checkpoint")
	}
	if st.Recovery.BaseEpoch+uint64(st.Recovery.Replayed) != dv.Epoch() {
		t.Fatalf("recovery accounting off: %+v at epoch %d", st.Recovery, dv.Epoch())
	}
	if st.WAL.TornBytes != 0 {
		t.Fatalf("clean shutdown left a torn tail: %+v", st.WAL)
	}
}

func TestDurableCheckpointTruncatesWAL(t *testing.T) {
	w := newDurableWorkload(41_000_200, 12)
	dir := t.TempDir()
	dv, err := OpenDurable(dir, func() (*Data, error) { return w.base, nil }, w.sigma,
		DurableOptions{Sync: wal.SyncAlways, SegmentBytes: 128, CheckpointEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer dv.Close()
	for _, d := range w.deltas {
		if _, err := dv.Apply(d.adds, d.deletes); err != nil {
			t.Fatal(err)
		}
		dv.waitCheckpoint()
	}
	st := dv.Durability()
	if st.CheckpointFailures != 0 {
		t.Fatalf("checkpoints failed: %+v", st)
	}
	if st.CheckpointEpoch < w.base.Epoch()+4 {
		t.Fatalf("no automatic checkpoint happened: %+v", st)
	}
	if st.SinceCheckpoint >= 8 {
		t.Fatalf("WAL retains too much past the checkpoint: %+v", st)
	}
	if st.WAL.FirstEpoch != 0 && st.WAL.FirstEpoch <= w.base.Epoch()+1 {
		t.Fatalf("truncation removed nothing: %+v", st.WAL)
	}

	// An explicit checkpoint empties the retained tail.
	if err := dv.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if st := dv.Durability(); st.SinceCheckpoint != 0 || st.WAL.Segments != 0 {
		t.Fatalf("explicit checkpoint left %+v", st)
	}

	t.Run("async", checkpointTruncatesWALAsync)
}

// TestDurableHistoryRingAfterRecovery pins the ring semantics a restart
// produces: the ring is rebuilt from the checkpoint forward, so epochs
// the replay walked through can be re-pinned (a resumed session finds
// its snapshot), while epochs at or before the checkpoint are evicted
// with ErrEpochEvicted — exactly the signal the monitor's resume path
// maps to a rebase-or-fail decision.
func TestDurableHistoryRingAfterRecovery(t *testing.T) {
	w := newDurableWorkload(41_000_300, 10)
	dir := t.TempDir()
	dv, err := OpenDurable(dir, func() (*Data, error) { return w.base, nil }, w.sigma,
		DurableOptions{CheckpointEvery: 4, History: 16})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range w.deltas {
		if _, err := dv.Apply(d.adds, d.deletes); err != nil {
			t.Fatal(err)
		}
		dv.waitCheckpoint()
	}
	ckpt := dv.Durability().CheckpointEpoch
	if ckpt <= w.base.Epoch() || ckpt >= dv.Epoch() {
		t.Fatalf("want a checkpoint strictly inside the lineage, got %d", ckpt)
	}
	dv.Close()

	dv2, err := OpenDurable(dir, func() (*Data, error) { return w.base, nil }, w.sigma,
		DurableOptions{CheckpointEvery: 4, History: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer dv2.Close()
	base := w.base.Epoch()

	// Re-pinning every recovered epoch yields the exact historical state.
	for e := ckpt; e <= dv2.Epoch(); e++ {
		snap, err := dv2.At(e)
		if err != nil {
			t.Fatalf("re-pin recovered epoch %d: %v", e, err)
		}
		checkState(t, fmt.Sprintf("re-pinned epoch %d", e), snap, w.expected[e-base])
	}
	// Epochs before the checkpoint are gone, with the typed signal.
	if _, err := dv2.At(ckpt - 1); !errors.Is(err, ErrEpochEvicted) {
		t.Fatalf("pre-checkpoint epoch: want ErrEpochEvicted, got %v", err)
	}
	// A shallow ring still serves its head after recovery.
	dv2.Versioned().SetHistory(1)
	if _, err := dv2.At(dv2.Epoch()); err != nil {
		t.Fatalf("head must always be pinnable: %v", err)
	}
	if _, err := dv2.At(dv2.Epoch() - 1); !errors.Is(err, ErrEpochEvicted) {
		t.Fatalf("shrunk ring: want ErrEpochEvicted, got %v", err)
	}
}

// checkpointCorruption is one flipped byte of a checkpoint image, placed by
// the image's own header: the structural fields, and the tuple payload,
// where a flipped byte is usually another valid value that only the
// checksum (or, on an authenticated lineage, the root) tells apart.
type checkpointCorruption struct {
	name string
	off  int
	mask byte
}

func checkpointCorruptions(t *testing.T, img []byte) []checkpointCorruption {
	t.Helper()
	le := binary.LittleEndian
	sec := func(i int) int { return int(le.Uint64(img[hdrSections+8*i:])) }
	align8 := func(off int) int { return (off + 7) &^ 7 }
	// Symbols: one cell per value — a kind byte, then for a string (0x01)
	// its uvarint length and bytes, for an int (0x02) its varint.
	cells := make([]int, le.Uint32(img[hdrNSyms:]))
	for i, off := 0, sec(secSymbols); i < len(cells); i++ {
		cells[i] = off
		switch img[off] {
		case 0x01:
			l, k := binary.Uvarint(img[off+1:])
			off += 1 + k + int(l)
		case 0x02:
			_, k := binary.Varint(img[off+1:])
			off += 1 + k
		default:
			off++
		}
	}
	// The first cell of column 0 whose value is a non-empty string, and that
	// value's symbol cell.
	n, arity := int(le.Uint64(img[hdrNTuples:])), int(le.Uint32(img[hdrArity:]))
	cell, sym := -1, -1
	for i := 0; i < n && cell < 0; i++ {
		off := sec(secRows) + 4*arity*i
		if c := cells[le.Uint32(img[off:])]; img[c] == 0x01 && img[c+1] > 0 {
			cell, sym = off, c
		}
	}
	if cell < 0 {
		t.Fatal("fixture: column 0 of the checkpoint holds no string")
	}
	// Indexes: u32 |Xm|, the positions, padding, then shard 0's table header
	// (slot, key and id counts). Rules: a u64 signature each.
	table := align8(sec(secIndexes) + 4 + 4*int(le.Uint32(img[sec(secIndexes):])))
	return []checkpointCorruption{
		{"header tuple count", hdrNTuples, 0xFF},
		{"header shard count", hdrNShards, 0xFF},
		{"header arity", hdrArity, 0xFF},
		{"header symbol count", hdrNSyms, 0xFF},
		{"header file size", hdrFileSize, 0xFF},
		{"header section offset", hdrSections + 8*secRows, 0xFF},
		{"schema name", sec(secSchema) + 4, 0xFF},
		{"table slot count", table, 0xFF},
		{"table key count", table + 8, 0xFF},
		{"table id count", table + 16, 0xFF},
		{"rule signature", sec(secRules), 0xFF},
		{"string bytes", sym + 2, 0x80},
		{"string length", sym + 1, 0x01},
		{"cell id", cell, 0x01},
		{"trailer", len(img) - 1, 0x01},
	}
}

// TestDurableCorruptionIsTyped: a checkpoint with any single byte flipped
// fails the open with ErrBadSnapshot, and so does one of an older format;
// the lineage is never rebuilt from its base over it. The loader refuses
// every flip of the same head saved without its commitment too. A flipped
// byte of the log fails the open with ErrWALCorrupt.
func TestDurableCorruptionIsTyped(t *testing.T) {
	t.Run("checkpoint", func(t *testing.T) {
		for _, shards := range []int{1, 4} {
			w := newDurableWorkload(41_000_400, 4)
			w.base = MustNewForRules(w.base.Relation(), w.sigma, WithShards(shards))
			opts := w.opts(wal.OS)
			dir := t.TempDir()
			rebuilt := false
			base := func() (*Data, error) { rebuilt = true; return w.base, nil }
			dv, err := OpenDurable(dir, base, w.sigma, opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range w.deltas {
				if _, err := dv.Apply(d.adds, d.deletes); err != nil {
					t.Fatal(err)
				}
				dv.waitCheckpoint()
			}
			head := dv.Current()
			if err := dv.Close(); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, CheckpointFile)
			img, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			rebuilt = false
			open := func(what string, bad []byte) error {
				if err := os.WriteFile(path, bad, 0o644); err != nil {
					t.Fatal(err)
				}
				dv, err := OpenDurable(dir, base, w.sigma, opts)
				if err == nil {
					dv.Close()
				}
				if !errors.Is(err, ErrBadSnapshot) || rebuilt {
					t.Errorf("P=%d: %s: want ErrBadSnapshot and no rebuild, got %v (rebuilt %v)", shards, what, err, rebuilt)
				}
				return err
			}
			for _, c := range checkpointCorruptions(t, img) {
				bad := bytes.Clone(img)
				bad[c.off] ^= c.mask
				open(fmt.Sprintf("%s (offset %d) flipped", c.name, c.off), bad)
			}
			v5 := bytes.Clone(img)
			binary.LittleEndian.PutUint32(v5[hdrVersion:], 5)
			if err := open("a version-5 checkpoint", v5); err != nil && !strings.Contains(err.Error(), "unsupported version 5 (want 7)") {
				t.Errorf("P=%d: version-5 checkpoint: %v does not name the versions", shards, err)
			}
			// Every other byte, through the loader the open calls.
			plain := saveArenaBytes(t, MustNewForRules(head.Relation(), w.sigma, WithShards(shards)), w.sigma)
			for _, im := range [][]byte{img, plain} {
				for off := range im {
					bad := bytes.Clone(im)
					bad[off] ^= 0x01
					if _, err := LoadArenaBytes(bad, w.sigma); !errors.Is(err, ErrBadSnapshot) {
						t.Fatalf("P=%d: byte %d of %d flipped: want ErrBadSnapshot, got %v", shards, off, len(im), err)
					}
				}
			}
		}
	})
	t.Run("wal", func(t *testing.T) {
		w := newDurableWorkload(41_000_500, 8)
		dir := t.TempDir()
		dv, err := OpenDurable(dir, func() (*Data, error) { return w.base, nil }, w.sigma,
			DurableOptions{SegmentBytes: 128, CheckpointEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range w.deltas {
			if _, err := dv.Apply(d.adds, d.deletes); err != nil {
				t.Fatal(err)
			}
		}
		dv.Close()
		segs, _ := filepath.Glob(filepath.Join(dir, "*.wal"))
		if len(segs) < 2 {
			t.Fatalf("want ≥2 segments, have %d", len(segs))
		}
		b, err := os.ReadFile(segs[0])
		if err != nil {
			t.Fatal(err)
		}
		b[len(b)/2] ^= 0xFF
		if err := os.WriteFile(segs[0], b, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err = OpenDurable(dir, func() (*Data, error) { return w.base, nil }, w.sigma, DurableOptions{})
		if !errors.Is(err, wal.ErrWALCorrupt) {
			t.Fatalf("want ErrWALCorrupt, got %v", err)
		}
		var ce *wal.CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("want *wal.CorruptError, got %#v", err)
		}
	})
}

// TestDurableInvalidDeltaNotLogged: a delta ApplyDelta rejects must leave
// no trace — not in the head, not in the log — and the lineage continues
// as if it never happened, across a restart.
func TestDurableInvalidDeltaNotLogged(t *testing.T) {
	w := newDurableWorkload(41_000_600, 3)
	dir := t.TempDir()
	dv, err := OpenDurable(dir, func() (*Data, error) { return w.base, nil }, w.sigma, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dv.Apply(w.deltas[0].adds, w.deltas[0].deletes); err != nil {
		t.Fatal(err)
	}
	mark := dv.Epoch()
	if _, err := dv.Apply(nil, []int{1 << 20}); err == nil {
		t.Fatal("out-of-range delete accepted")
	}
	if _, err := dv.Apply([]relation.Tuple{{relation.String("x")}}, nil); err == nil {
		t.Fatal("arity-mismatched add accepted")
	}
	if dv.Epoch() != mark {
		t.Fatalf("invalid delta moved the head to %d", dv.Epoch())
	}
	if _, err := dv.Apply(w.deltas[1].adds, w.deltas[1].deletes); err != nil {
		t.Fatalf("valid delta after rejections: %v", err)
	}
	dv.Close()

	dv2, err := OpenDurable(dir, func() (*Data, error) { return w.base, nil }, w.sigma, DurableOptions{})
	if err != nil {
		t.Fatalf("reopen after rejected deltas: %v", err)
	}
	defer dv2.Close()
	if dv2.Epoch() != mark+1 {
		t.Fatalf("reopened at epoch %d, want %d", dv2.Epoch(), mark+1)
	}
	checkState(t, "after rejections", dv2.Current(), w.expected[2])
	checkEquiv(t, "after rejections", dv2.Current(), w.sigma)
}
