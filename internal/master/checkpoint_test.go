package master

// The background checkpoint and the interleavings it opens up. A parkFS
// stops the checkpoint writer at a chosen phase boundary — deterministically,
// on the filesystem operation that marks it — while the test appends more
// deltas, reads the lineage's stats, tails the log, or cuts the power
// (walfault.Crash); the sequential crash points stay with the budget sweep
// of durable_test.go.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/authtree"
	"repro/internal/relation"
	"repro/internal/wal"
	"repro/internal/wal/walfault"
)

// ckptPhase names a boundary in a checkpoint's life by the operation the
// writer is about to make when it gets there.
type ckptPhase int

const (
	phaseNone       ckptPhase = iota
	phaseWriting              // first Write to the tmp image
	phaseTmpWritten           // image written, about to fsync it
	phaseTmpSynced            // image durable, about to rename it into place
	phaseRenamed              // renamed, about to fsync the directory
	phaseDirSynced            // checkpoint durable, about to remove the first covered segment (under dmu)
	phaseTruncated            // complete; nothing left to park on
)

func (p ckptPhase) String() string {
	return [...]string{"none", "writing", "tmp written", "tmp synced", "renamed", "dir synced", "truncated"}[p]
}

// parkFS parks the goroutine that reaches the armed phase until released;
// every other operation — the WAL's own appends, syncs and directory syncs
// among them — passes straight through.
type parkFS struct {
	wal.FS
	mu      sync.Mutex
	armed   ckptPhase
	parked  chan struct{}
	release chan struct{}
	// renamed flips once an image has been renamed into place.
	renamed atomic.Bool
	// afterRename: the next SyncDir belongs to the checkpoint.
	afterRename bool
}

// arm makes the next arrival at ph park. parked closes when it has; release
// lets it continue.
func (p *parkFS) arm(ph ckptPhase) (parked <-chan struct{}, release func()) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.armed, p.parked, p.release = ph, make(chan struct{}), make(chan struct{})
	rel := p.release
	return p.parked, func() { close(rel) }
}

func (p *parkFS) at(ph ckptPhase) {
	p.mu.Lock()
	if p.armed != ph {
		p.mu.Unlock()
		return
	}
	p.armed = phaseNone
	parked, release := p.parked, p.release
	p.mu.Unlock()
	close(parked)
	<-release
}

func (p *parkFS) OpenFile(name string, flag int, perm os.FileMode) (wal.File, error) {
	f, err := p.FS.OpenFile(name, flag, perm)
	if err == nil && strings.HasSuffix(name, ".tmp") {
		return &parkFile{File: f, fs: p}, nil
	}
	return f, err
}

func (p *parkFS) Rename(oldname, newname string) error {
	p.at(phaseTmpSynced)
	err := p.FS.Rename(oldname, newname)
	if err == nil {
		p.renamed.Store(true)
		p.mu.Lock()
		p.afterRename = true
		p.mu.Unlock()
	}
	return err
}

func (p *parkFS) SyncDir(name string) error {
	p.mu.Lock()
	mine := p.afterRename
	p.afterRename = false
	p.mu.Unlock()
	if mine {
		p.at(phaseRenamed)
	}
	return p.FS.SyncDir(name)
}

func (p *parkFS) Remove(name string) error {
	if strings.HasSuffix(name, ".wal") {
		p.at(phaseDirSynced)
	}
	return p.FS.Remove(name)
}

type parkFile struct {
	wal.File
	fs *parkFS
}

func (f *parkFile) Write(b []byte) (int, error) {
	f.fs.at(phaseWriting)
	return f.File.Write(b)
}

func (f *parkFile) Sync() error {
	f.fs.at(phaseTmpWritten)
	return f.File.Sync()
}

// within fails the test when fn has not returned after a generous bound:
// the point of these tests is that something does NOT wait for a parked
// checkpoint, and a hang should read as that, not as a suite timeout.
func within(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { defer close(done); fn() }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("%s still blocked after 30s behind a parked checkpoint", what)
	}
}

// TestApplyDoesNotWaitForCheckpoint: while the checkpoint's arena write is
// parked, the lineage keeps serving — Durability (GET /healthz), the WAL
// tail a follower reads (which asks Durability first) and 32 further
// deltas all complete. With the arena written under the write lock, each of
// them hung for the whole image.
func TestApplyDoesNotWaitForCheckpoint(t *testing.T) {
	w := newDurableWorkload(45_000_001, 40)
	park := &parkFS{FS: wal.OS}
	dv, err := OpenDurable(t.TempDir(), func() (*Data, error) { return w.base, nil }, w.sigma,
		DurableOptions{Sync: wal.SyncAlways, CheckpointEvery: 8, FS: park})
	if err != nil {
		t.Fatal(err)
	}
	dv.waitCheckpoint() // the base checkpoint is not the one to park
	parked, release := park.arm(phaseWriting)
	for _, d := range w.deltas[:8] {
		if _, err := dv.Apply(d.adds, d.deletes); err != nil {
			t.Fatal(err)
		}
	}
	<-parked // the eighth delta started a checkpoint, and its writer is stuck

	within(t, "Durability", func() {
		if st := dv.Durability(); !st.CheckpointInFlight || st.CheckpointEpoch != w.base.Epoch() {
			t.Errorf("mid-checkpoint stats: %+v", st)
		}
	})
	within(t, "32 Apply calls", func() {
		for _, d := range w.deltas[8:] {
			if _, err := dv.Apply(d.adds, d.deletes); err != nil {
				t.Error(err)
				return
			}
		}
	})
	within(t, "TailWAL", func() {
		n, err := dv.TailWAL(w.base.Epoch(), func(wal.Record) error { return nil })
		if err != nil || n != len(w.deltas) {
			t.Errorf("tail during a checkpoint: %d records, %v", n, err)
		}
	})

	release()
	if err := dv.Close(); err != nil {
		t.Fatal(err)
	}
	st := dv.Durability()
	if st.CheckpointInFlight || st.CheckpointEpoch != w.base.Epoch()+8 || st.CheckpointFailures != 0 || st.LastCheckpointMs <= 0 {
		t.Fatalf("after the checkpoint completed: %+v", st)
	}
	// Only one checkpoint is ever in flight: the deltas applied while it was
	// parked started none, and the log kept what they appended.
	if st.WAL.FirstEpoch != w.base.Epoch()+9 || st.WAL.LastEpoch != w.base.Epoch()+40 {
		t.Fatalf("log after the checkpoint: %+v", st.WAL)
	}
}

// checkpointTruncatesWALAsync is the async leg of
// TestDurableCheckpointTruncatesWAL: K deltas land while the image is being
// written, and once the undisturbed checkpoint completes the log holds
// exactly the epochs above the pinned one — the roll at pin time is what
// lets the truncation reclaim the segment the pinned epoch was in.
func checkpointTruncatesWALAsync(t *testing.T) {
	w := newDurableWorkload(45_000_002, 12)
	park := &parkFS{FS: wal.OS}
	dv, err := OpenDurable(t.TempDir(), func() (*Data, error) { return w.base, nil }, w.sigma,
		DurableOptions{Sync: wal.SyncAlways, CheckpointEvery: -1, FS: park}) // one big segment unless rolled
	if err != nil {
		t.Fatal(err)
	}
	defer dv.Close()
	apply := func(ds ...int) {
		t.Helper()
		for _, i := range ds {
			if _, err := dv.Apply(w.deltas[i].adds, w.deltas[i].deletes); err != nil {
				t.Fatal(err)
			}
		}
	}
	apply(0, 1, 2, 3, 4)
	pinned := dv.Epoch()
	parked, release := park.arm(phaseTmpWritten)
	done := make(chan error, 1)
	go func() { done <- dv.Checkpoint() }()
	<-parked
	apply(5, 6, 7, 8)
	release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	st := dv.Durability()
	if st.CheckpointEpoch != pinned || st.SinceCheckpoint != 4 || st.CheckpointFailures+st.TruncateFailures != 0 {
		t.Fatalf("after the checkpoint: %+v", st)
	}
	if st.WAL.FirstEpoch != pinned+1 || st.WAL.LastEpoch != pinned+4 || st.WAL.Segments != 1 {
		t.Fatalf("log should hold exactly epochs %d..%d in one segment: %+v", pinned+1, pinned+4, st.WAL)
	}
	// The image on disk is the pinned epoch's, not the head's.
	raw, epoch, err := dv.CheckpointImage()
	if err != nil {
		t.Fatal(err)
	}
	if img := loadArenaOrFatal(t, raw, w.sigma); epoch != pinned || img.Epoch() != pinned {
		t.Fatalf("image at epoch %d (header says %d), pinned %d", img.Epoch(), epoch, pinned)
	}
}

// TestDurableBackgroundCheckpointCrash extends the walfault proof to the
// interleavings a background checkpoint adds: the writer is parked at each
// phase boundary, K more deltas are acknowledged behind its back (where the
// phase leaves the write lock free), and the power is cut right there, at
// spill 0, ½ and 1. Reopened with the plain filesystem, the directory must
// yield the pre-crash lineage: no acknowledged epoch lost, tuples, probes
// and Merkle root those of that epoch, and the remaining deltas landing on
// the uninterrupted run's final state.
func TestDurableBackgroundCheckpointCrash(t *testing.T) {
	const before, nDeltas = 5, 12
	w := newDurableWorkload(45_000_003, nDeltas)
	base := func() (*Data, error) { return w.base, nil }
	baseCheckpointCrash(t, w)
	for ph := phaseWriting; ph <= phaseTruncated; ph++ {
		for _, k := range []int{0, 1, 4} {
			if ph == phaseDirSynced && k > 0 {
				continue // parked under the write lock: nothing can be appended
			}
			for _, sp := range [][2]int{{0, 1}, {1, 2}, {1, 1}} {
				label := fmt.Sprintf("parked at %q, %d appends, spill %d/%d", ph, k, sp[0], sp[1])
				dir := t.TempDir()
				fault := walfault.New(wal.OS, -1, sp[0], sp[1])
				park := &parkFS{FS: fault}
				dv, err := OpenDurable(dir, base, w.sigma,
					DurableOptions{Sync: wal.SyncAlways, SegmentBytes: 256, CheckpointEvery: -1, FS: park})
				if err != nil {
					t.Fatal(err)
				}
				acked := w.base.Epoch()
				apply := func(ds []struct {
					adds    []relation.Tuple
					deletes []int
				}) {
					for _, d := range ds {
						next, err := dv.Apply(d.adds, d.deletes)
						if err != nil {
							t.Fatalf("%s: apply: %v", label, err)
						}
						acked = next.Epoch()
					}
				}
				apply(w.deltas[:before])
				done := make(chan error, 1)
				if ph == phaseTruncated {
					if err := dv.Checkpoint(); err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					apply(w.deltas[before : before+k])
					fault.Crash()
				} else {
					parked, release := park.arm(ph)
					go func() { done <- dv.Checkpoint() }()
					<-parked
					apply(w.deltas[before : before+k])
					fault.Crash()
					release()
					<-done // failed, or durable without its truncation: either is a legal crash
				}
				_ = dv.Close() // the log is dead; Close still has to return
				if (ph >= phaseRenamed) != fileEpochIs(t, dir, w, w.base.Epoch()+before) {
					t.Fatalf("%s: checkpoint.arena at the wrong epoch for the phase", label)
				}
				w.recoverAndProve(t, dir, acked, label)

				// Root for root: recovery recomputes the image's
				// root and checks every replayed record's against the log.
				dv2, err := OpenDurable(dir, base, w.sigma, DurableOptions{})
				if err != nil {
					t.Fatalf("%s: authenticated recovery: %v", label, err)
				}
				rel, _ := relation.FromTuples(w.base.Schema(), w.expected[nDeltas])
				if got, want := mustRoot(t, dv2.Current()), authtree.Build(rel).Root(); got != want {
					t.Fatalf("%s: recovered root %s, the lineage's is %s", label, got, want)
				}
				if err := dv2.Close(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// errNoBase is what a base() that can no longer build the first snapshot
// returns: a reopen that still needs it has lost the lineage's seed.
var errNoBase = errors.New("base snapshot unavailable")

// baseCheckpointCrash is TestDurableBackgroundCheckpointCrash's sweep over
// the base checkpoint of a first open: its writer parked at each phase
// boundary, and the power cut there at spill 0, ½ and 1. No update can have
// been acknowledged — Apply waits for the base — so the directory holds
// either no checkpoint, and a reopen must seed from base() again (and fail,
// typed, when base() cannot), or the complete image the rename put in
// place: a torn tmp image is never loaded. Either way the reopened head is
// epoch 0 under the base's root. (The base truncates no segment, so its
// writer never reaches phaseDirSynced's Remove.)
func baseCheckpointCrash(t *testing.T, w *durableWorkload) {
	rel, err := relation.FromTuples(w.base.Schema(), w.expected[0])
	if err != nil {
		t.Fatal(err)
	}
	wantRoot := authtree.Build(rel).Root()
	base := func() (*Data, error) { return w.base, nil }
	noBase := func() (*Data, error) { return nil, errNoBase }
	for ph := phaseWriting; ph <= phaseRenamed; ph++ {
		for _, sp := range [][2]int{{0, 1}, {1, 2}, {1, 1}} {
			label := fmt.Sprintf("base checkpoint parked at %q, spill %d/%d", ph, sp[0], sp[1])
			dir := t.TempDir()
			fault := walfault.New(wal.OS, -1, sp[0], sp[1])
			park := &parkFS{FS: fault}
			parked, release := park.arm(ph)
			dv, err := OpenDurable(dir, base, w.sigma,
				DurableOptions{Sync: wal.SyncAlways, SegmentBytes: 256, CheckpointEvery: -1, FS: park})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			<-parked
			fault.Crash()
			release()
			_ = dv.Close() // the checkpoint failed with the power; Close still has to return
			if st := dv.Durability(); st.CheckpointFailures != 1 || st.WAL.LastEpoch != 0 {
				t.Fatalf("%s: after the cut: %+v", label, st)
			}
			_, statErr := os.Stat(filepath.Join(dir, CheckpointFile))
			if landed := statErr == nil; landed != (ph >= phaseRenamed) {
				t.Fatalf("%s: checkpoint.arena in place = %v", label, landed)
			}

			dv2, err := OpenDurable(dir, noBase, w.sigma, DurableOptions{})
			switch {
			case ph < phaseRenamed && !errors.Is(err, errNoBase):
				t.Fatalf("%s: reopen without a base: %v, want the base's error", label, err)
			case ph >= phaseRenamed && err != nil:
				t.Fatalf("%s: reopen on the landed image: %v", label, err)
			case ph >= phaseRenamed:
				if got := mustRoot(t, dv2.Current()); dv2.Epoch() != w.base.Epoch() || got != wantRoot {
					t.Fatalf("%s: landed image opens at epoch %d under %s", label, dv2.Epoch(), got)
				}
				if err := dv2.Close(); err != nil {
					t.Fatal(err)
				}
			}
			dv2, err = OpenDurable(dir, base, w.sigma, DurableOptions{})
			if err != nil {
				t.Fatalf("%s: reopen: %v", label, err)
			}
			if got := mustRoot(t, dv2.Current()); dv2.Epoch() != w.base.Epoch() || got != wantRoot {
				t.Fatalf("%s: reopened at epoch %d under %s", label, dv2.Epoch(), got)
			}
			if err := dv2.Close(); err != nil {
				t.Fatal(err)
			}
			if !fileEpochIs(t, dir, w, w.base.Epoch()) {
				t.Fatalf("%s: the reopen's checkpoint is not the base", label)
			}
		}
	}
}

// fileEpochIs reports whether the checkpoint image on disk is at epoch.
func fileEpochIs(t *testing.T, dir string, w *durableWorkload, epoch uint64) bool {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, CheckpointFile))
	if err != nil {
		t.Fatal(err)
	}
	return loadArenaOrFatal(t, raw, w.sigma).Epoch() == epoch
}

// TestCloseWaitsForCheckpoint: Close called while an image is being written
// returns only once that checkpoint is durable — renamed into place, epoch
// advanced, log truncated — or, when the write fails, counted failed.
func TestCloseWaitsForCheckpoint(t *testing.T) {
	w := newDurableWorkload(45_000_004, 4)
	for _, fail := range []bool{false, true} {
		fault := walfault.New(wal.OS, -1, 0, 1)
		park := &parkFS{FS: fault}
		dir := t.TempDir()
		dv, err := OpenDurable(dir, func() (*Data, error) { return w.base, nil }, w.sigma,
			DurableOptions{Sync: wal.SyncAlways, CheckpointEvery: 4, FS: park})
		if err != nil {
			t.Fatal(err)
		}
		dv.waitCheckpoint() // the base checkpoint is not the one to park
		parked, release := park.arm(phaseTmpWritten)
		for _, d := range w.deltas {
			if _, err := dv.Apply(d.adds, d.deletes); err != nil {
				t.Fatal(err)
			}
		}
		<-parked
		closed := make(chan error, 1)
		go func() {
			err := dv.Close()
			if !fail && !park.renamed.Load() {
				t.Error("Close returned before the checkpoint it found in flight was in place")
			}
			closed <- err
		}()
		if fail {
			fault.Crash() // the parked fsync, and everything after it, fails
		}
		release()
		err = <-closed
		st := dv.Durability()
		switch {
		case st.CheckpointInFlight:
			t.Fatalf("fail=%v: Close returned with the checkpoint still in flight", fail)
		case fail && st.CheckpointFailures != 1:
			t.Fatalf("failed checkpoint not counted: %+v", st)
		case !fail && (err != nil || st.CheckpointEpoch != w.base.Epoch()+4 || st.WAL.Segments != 0):
			t.Fatalf("Close (%v) left %+v", err, st)
		}
	}
}

// TestCheckpointImageMatchesItsEpoch: with checkpoints completing as fast as
// deltas arrive, every (image, epoch) pair CheckpointImage hands out is one
// image with its own epoch — never the bytes of one checkpoint beside the
// epoch of another.
func TestCheckpointImageMatchesItsEpoch(t *testing.T) {
	w := newDurableWorkload(45_000_005, 60)
	dv, err := OpenDurable(t.TempDir(), func() (*Data, error) { return w.base, nil }, w.sigma,
		DurableOptions{Sync: wal.SyncNever, CheckpointEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer dv.Close()
	stop := make(chan struct{})
	var readers sync.WaitGroup
	var images atomic.Int64
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				raw, epoch, err := dv.CheckpointImage()
				if err != nil {
					t.Error(err)
					return
				}
				img, err := LoadArenaBytes(raw, w.sigma)
				if err != nil {
					t.Error(err)
					return
				}
				if img.Epoch() != epoch {
					t.Errorf("image loads at epoch %d, CheckpointImage said %d", img.Epoch(), epoch)
					return
				}
				images.Add(1)
			}
		}()
	}
	for _, d := range w.deltas {
		if _, err := dv.Apply(d.adds, d.deletes); err != nil {
			t.Fatal(err)
		}
	}
	dv.waitCheckpoint()
	close(stop)
	readers.Wait()
	if st := dv.Durability(); st.CheckpointEpoch == w.base.Epoch() || images.Load() == 0 {
		t.Fatalf("fixture too tame: %d images read, %+v", images.Load(), st)
	}
}

// TestFixesServedBeforeBaseCheckpoint: the base checkpoint of a first open is
// written in the background. With its arena write parked, OpenDurable has
// returned and the readers answer at epoch 0, while the log waits: Apply
// blocks and appends nothing, and CheckpointImage blocks, until the image is
// durable.
func TestFixesServedBeforeBaseCheckpoint(t *testing.T) {
	w := newDurableWorkload(45_000_006, 2)
	park := &parkFS{FS: wal.OS}
	parked, release := park.arm(phaseWriting)
	dir := t.TempDir()
	var dv *DurableVersioned
	within(t, "OpenDurable", func() {
		var err error
		if dv, err = OpenDurable(dir, func() (*Data, error) { return w.base, nil }, w.sigma,
			DurableOptions{Sync: wal.SyncAlways, FS: park}); err != nil {
			t.Error(err)
		}
	})
	if dv == nil {
		release()
		return // OpenDurable failed or blocked; already reported
	}
	<-parked
	base := w.base.Epoch()
	within(t, "readers", func() {
		if d, err := dv.At(base); err != nil || dv.Current() != d || dv.Epoch() != base {
			t.Errorf("head at epoch %d, At(%d) = %v", dv.Epoch(), base, err)
		}
		if st := dv.Durability(); !st.CheckpointInFlight || st.CheckpointEpoch != base || st.SinceCheckpoint != 0 {
			t.Errorf("durability while the base is written: %+v", st)
		}
	})

	applied := make(chan error, 1)
	go func() {
		_, err := dv.Apply(w.deltas[0].adds, w.deltas[0].deletes)
		applied <- err
	}()
	type image struct {
		epoch uint64
		err   error
	}
	imaged := make(chan image, 1)
	go func() {
		_, epoch, err := dv.CheckpointImage()
		imaged <- image{epoch, err}
	}()
	// Blocking is an absence, so it takes a window: time in which either
	// call, not waiting, would have returned.
	time.Sleep(50 * time.Millisecond)
	select {
	case err := <-applied:
		t.Fatalf("Apply returned (%v) before the base checkpoint was durable", err)
	case img := <-imaged:
		t.Fatalf("CheckpointImage returned (%+v) before the base checkpoint was durable", img)
	default:
	}
	if st := dv.Durability().WAL; st.Segments != 0 || st.LastEpoch != 0 {
		t.Fatalf("the log holds records before the base is durable: %+v", st)
	}

	release()
	if err := <-applied; err != nil {
		t.Fatal(err)
	}
	if img := <-imaged; img.err != nil || img.epoch != base {
		t.Fatalf("CheckpointImage: epoch %d, %v; want %d", img.epoch, img.err, base)
	}
	st := dv.Durability()
	if st.CheckpointEpoch != base || st.CheckpointFailures != 0 || st.LastCheckpointMs <= 0 ||
		st.WAL.FirstEpoch != base+1 || st.WAL.LastEpoch != base+1 {
		t.Fatalf("after the base checkpoint: %+v", st)
	}
	if err := dv.Close(); err != nil {
		t.Fatal(err)
	}
}

// failFS fails the next fails arena writes: the tmp image's create.
type failFS struct {
	wal.FS
	fails atomic.Int32
}

var errDiskFull = errors.New("disk full")

func (f *failFS) OpenFile(name string, flag int, perm os.FileMode) (wal.File, error) {
	if strings.HasSuffix(name, ".tmp") && f.fails.Add(-1) >= 0 {
		return nil, errDiskFull
	}
	return f.FS.OpenFile(name, flag, perm)
}

// TestBaseCheckpointRetried: a base checkpoint that fails does not fail the
// open — it is counted — and is never skipped: the first Apply writes it
// again before it logs anything, and the directory it leaves recovers with
// no base() at all. When the retry fails too, Apply fails with nothing
// logged.
func TestBaseCheckpointRetried(t *testing.T) {
	w := newDurableWorkload(45_000_007, 3)
	base := func() (*Data, error) { return w.base, nil }
	for _, fails := range []int32{1, 2} {
		ctx := fmt.Sprintf("%d failed writes", fails)
		dir := t.TempDir()
		ffs := &failFS{FS: wal.OS}
		ffs.fails.Store(fails)
		dv, err := OpenDurable(dir, base, w.sigma, DurableOptions{Sync: wal.SyncAlways, FS: ffs})
		if err != nil {
			t.Fatalf("%s: OpenDurable: %v", ctx, err)
		}
		dv.waitCheckpoint()
		if st := dv.Durability(); st.CheckpointFailures != 1 || st.CheckpointInFlight {
			t.Fatalf("%s: after the failed base checkpoint: %+v", ctx, st)
		}
		_, err = dv.Apply(w.deltas[0].adds, w.deltas[0].deletes)
		st := dv.Durability()
		if fails == 2 {
			if !errors.Is(err, errDiskFull) || st.CheckpointFailures != 2 || st.WAL.Segments != 0 || st.WAL.LastEpoch != 0 || dv.Epoch() != w.base.Epoch() {
				t.Fatalf("%s: Apply = %v, %+v; want the retry's error and an empty log", ctx, err, st)
			}
			if _, err := os.Stat(filepath.Join(dir, CheckpointFile)); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("%s: checkpoint.arena: %v", ctx, err)
			}
			// The next Apply tries once more, and this time the disk takes it.
			if _, err := dv.Apply(w.deltas[0].adds, w.deltas[0].deletes); err != nil {
				t.Fatalf("%s: Apply after the disk recovered: %v", ctx, err)
			}
		} else if err != nil || st.CheckpointFailures != 1 || st.CheckpointEpoch != w.base.Epoch() || st.WAL.LastEpoch != w.base.Epoch()+1 {
			t.Fatalf("%s: Apply = %v, %+v", ctx, err, st)
		}
		if err := dv.Close(); err != nil {
			t.Fatal(err)
		}

		dv, err = OpenDurable(dir, func() (*Data, error) { return nil, errNoBase }, w.sigma, DurableOptions{})
		if err != nil {
			t.Fatalf("%s: reopen without a base: %v", ctx, err)
		}
		if rec := dv.Durability().Recovery; !rec.UsedCheckpoint || rec.Replayed != 1 || dv.Epoch() != w.base.Epoch()+1 {
			t.Fatalf("%s: recovered %+v at epoch %d", ctx, rec, dv.Epoch())
		}
		checkState(t, ctx, dv.Current(), w.expected[1])
		if err := dv.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
