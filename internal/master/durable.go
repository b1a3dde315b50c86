package master

// DurableVersioned puts the snapshot lineage on disk. A plain Versioned
// is process memory: a certainfixd restart silently loses every
// ApplyDelta since boot, and with it the paper's premise that fixes are
// certain relative to a KNOWN master state. DurableVersioned wraps the
// same ring behind a write-ahead log and periodic arena checkpoints:
//
//	Apply     derive the next snapshot (an invalid delta is rejected
//	          before it ever reaches the log), append the delta as one
//	          epoch- and root-stamped WAL record, THEN publish the head.
//	          The record is fsynced before the head is published or the
//	          record shipped, so an Apply that returned is durable.
//	OpenDurable
//	          load the newest arena checkpoint (or build the base
//	          snapshot on first open, and start its checkpoint in the
//	          background), replay the WAL tail on top of it, and
//	          continue the lineage exactly where the previous process —
//	          cleanly shut down or power-cut — left it.
//
// Every DefaultCheckpointEvery (256) deltas a checkpoint of the current
// head STARTS.
// Apply only pins that head — an immutable snapshot — and rolls the WAL
// segment at its epoch; one background goroutine (at most one in flight)
// streams the arena atomically+durably through the same FS seam as the
// log, and only then re-takes the write lock, briefly, to advance the
// checkpoint epoch and truncate the segments the image covers. Writers
// (once the base below is durable), Durability and the WAL tail never wait
// for an image to be written. A
// checkpoint failure is counted, not fatal — the delta that triggered it is
// already in the log, so durability never regresses; the log just keeps
// more tail than it would like until a checkpoint succeeds.
//
// The base checkpoint of a first open takes the same background path, so
// the open returns, and readers see epoch 0, while the image is written.
// What must wait is the log: Apply, CheckpointImage and Checkpoint hold off
// until the base is durable (Apply restarting a base checkpoint that
// failed), so the directory never holds a logged delta without a checkpoint
// under it, and from then on recovery never calls base() again.
//
// The recovery contract — the recovered head is probe-for-probe and
// epoch-for-epoch identical to the pre-crash lineage at every possible
// crash point — is proven by the walfault sweep in durable_test.go.
//
// That is the whole durability contract of a production lineage, which
// sets only DurableOptions.History. Sync, CheckpointEvery, SegmentBytes
// and FS are for tests and benchmarks: the crash sweeps need small
// cadences and segment sizes, and the benchmarks measure SyncNever.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/relation"
	"repro/internal/rule"
	"repro/internal/wal"
)

// CheckpointFile is the name of the arena checkpoint inside a WAL
// directory.
const CheckpointFile = "checkpoint.arena"

// DefaultCheckpointEvery is the delta threshold between automatic arena
// checkpoints when DurableOptions.CheckpointEvery is zero.
const DefaultCheckpointEvery = 256

// DurableOptions configures OpenDurable.
type DurableOptions struct {
	// Sync is the WAL fsync policy (default wal.SyncAlways, the only one a
	// production lineage uses).
	Sync wal.SyncPolicy
	// SegmentBytes rolls WAL segments (default wal.DefaultSegmentBytes).
	SegmentBytes int64
	// CheckpointEvery is how many deltas accumulate before the head is
	// checkpointed and the covered WAL truncated (default
	// DefaultCheckpointEvery; <0 disables automatic checkpoints).
	CheckpointEvery int
	// History bounds the snapshot ring (default DefaultHistory).
	History int
	// FS overrides the filesystem for the WAL and the checkpoint
	// (default wal.OS); the crash-injection harness hooks in here.
	FS wal.FS
	// Auth once made authentication optional.
	//
	// Deprecated: Auth is ignored: a durable lineage is always
	// authenticated, and replay refuses a record without its root.
	Auth bool
}

// RecoveryStats describes what OpenDurable found on disk.
type RecoveryStats struct {
	// UsedCheckpoint is true when the base snapshot came from
	// checkpoint.arena rather than the caller's base builder.
	UsedCheckpoint bool
	// BaseEpoch is the epoch of that base snapshot.
	BaseEpoch uint64
	// Replayed is how many WAL records were applied on top of it.
	Replayed int
	// TornBytes is what the WAL open truncated from a torn tail.
	TornBytes int64
	// BaseMs, AuthenticateMs and ReplayMs attribute the open to its phases:
	// loading the checkpoint (or building the base snapshot), building the
	// Merkle commitment when the base did not carry one, and replaying the
	// WAL tail. A first open's base checkpoint is not among them: it runs in
	// the background, and its duration is the first LastCheckpointMs.
	BaseMs, AuthenticateMs, ReplayMs float64
}

// DurabilityStats is the observable durability state, served on the
// daemon's /healthz.
type DurabilityStats struct {
	// Epoch is the current head epoch.
	Epoch uint64
	// CheckpointEpoch is the epoch of the newest durable checkpoint. A
	// first open has none until its base checkpoint lands. Until then it
	// reads 0 all the same — with CheckpointInFlight true while the image
	// is written, or CheckpointFailures counting a failed attempt — and
	// epoch 0 is served under a root no checkpoint holds yet.
	CheckpointEpoch uint64
	// SinceCheckpoint is how many deltas the WAL holds past it.
	SinceCheckpoint int
	// CheckpointFailures counts checkpoints whose arena never became
	// durable (durability is unaffected — the WAL retains the tail — but
	// disk usage grows until one succeeds).
	CheckpointFailures int
	// TruncateFailures counts checkpoints whose arena DID land durably
	// but whose WAL truncation failed afterwards: the checkpoint is good,
	// the log just kept segments it no longer needs until the next
	// truncation retries. Reported separately so /healthz never calls a
	// durable checkpoint failed.
	TruncateFailures int
	// CheckpointInFlight reports a checkpoint being written in the
	// background right now; LastCheckpointMs is how long the newest
	// completed one took from pin to truncation.
	CheckpointInFlight bool
	LastCheckpointMs   float64
	// WAL is the log's own shape.
	WAL wal.Stats
	// Recovery is what the open found.
	Recovery RecoveryStats
}

// DurableVersioned is a Versioned whose lineage survives the process.
// Writers must go through its Apply; readers may use the embedded
// Versioned (Current, At, sessions) freely.
type DurableVersioned struct {
	ver   *Versioned
	log   *wal.Log
	sigma *rule.Set
	fsys  wal.FS
	dir   string
	every int

	// dmu serializes Apply, the start and the completion of a checkpoint,
	// and Close. It is never held while an arena is written, nor while
	// ver.mu is wanted by readers — publishes go through ver's own lock.
	dmu        sync.Mutex
	ckpt       *checkpointRun // the one in flight, nil when none
	based      bool           // a checkpoint is durable in dir: Apply may log
	ckptEpoch  uint64
	ckptFails  int
	truncFails int
	lastCkptMs float64
	recovery   RecoveryStats
	closed     bool
}

// checkpointRun is one checkpoint from pin to truncation; done closes once
// err is final.
type checkpointRun struct {
	done chan struct{}
	err  error
}

// OpenDurable opens (or initialises) the durable lineage rooted at dir.
// When dir holds a checkpoint it is loaded and the WAL tail replayed on
// top; otherwise base() builds the initial snapshot and its checkpoint
// starts in the background: the first Apply waits for it, so the
// directory is self-contained before it logs anything. Corruption
// anywhere — checkpoint or log — surfaces as the typed errors of the
// respective layer (*SnapshotError/ErrBadSnapshot,
// *wal.CorruptError/wal.ErrWALCorrupt), never a panic. The base is
// authenticated and the tail replayed through Versioned.ApplyRecord, so a
// rootless record, or one the base refuses, fails with a *DivergenceError.
func OpenDurable(dir string, base func() (*Data, error), sigma *rule.Set, opts DurableOptions) (*DurableVersioned, error) {
	fsys := opts.FS
	if fsys == nil {
		fsys = wal.OS
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("master: open durable %s: %w", dir, err)
	}
	every := opts.CheckpointEvery
	switch {
	case every == 0:
		every = DefaultCheckpointEvery
	case every < 0:
		every = 0 // disabled
	}

	ckptPath := filepath.Join(dir, CheckpointFile)
	var (
		d        *Data
		usedCkpt bool
		err      error
		phase    = time.Now()
	)
	// lap returns the milliseconds since the previous phase boundary.
	lap := func() float64 {
		ms := float64(time.Since(phase)) / float64(time.Millisecond)
		phase = time.Now()
		return ms
	}
	load := func() (*Data, error) {
		if fsys == wal.OS {
			return LoadArena(ckptPath, sigma) // mmap: shares page cache
		}
		raw, err := fsys.ReadFile(ckptPath)
		if err != nil {
			return nil, err
		}
		return LoadArenaBytes(raw, sigma)
	}
	switch d, err = load(); {
	case err == nil:
		usedCkpt = true
	case errors.Is(err, fs.ErrNotExist):
		d, err = base()
		if err != nil {
			return nil, fmt.Errorf("master: open durable %s: base snapshot: %w", dir, err)
		}
	default:
		return nil, fmt.Errorf("master: open durable %s: %w", dir, err)
	}
	recovery := RecoveryStats{UsedCheckpoint: usedCkpt, BaseEpoch: d.Epoch(), BaseMs: lap()}
	// Commit the base before replay so deltas keep the root incrementally;
	// a no-op on a checkpoint saved authenticated (the loader verified it).
	d.Authenticate()
	recovery.AuthenticateMs = lap()

	lg, err := wal.Open(dir, wal.Options{
		Sync:         opts.Sync,
		SegmentBytes: opts.SegmentBytes,
		FS:           fsys,
	})
	if err != nil {
		return nil, err
	}

	ver := NewVersioned(d)
	if opts.History > 0 {
		ver.SetHistory(opts.History)
	}
	baseEpoch := d.Epoch()
	replayed, err := lg.Replay(baseEpoch, func(rec wal.Record) error {
		if _, err := ver.ApplyRecord(rec); err != nil {
			return fmt.Errorf("master: open durable %s: replay: %w", dir, err)
		}
		return nil
	})
	if err != nil {
		lg.Close()
		return nil, err
	}

	recovery.Replayed, recovery.TornBytes, recovery.ReplayMs = replayed, lg.Stats().TornBytes, lap()

	dv := &DurableVersioned{ver: ver, log: lg, sigma: sigma, fsys: fsys, dir: dir, every: every,
		based: usedCkpt, ckptEpoch: baseEpoch, recovery: recovery}
	if !usedCkpt {
		// First open of this directory: checkpoint the base snapshot, so
		// recovery never depends on the caller's base() being reproducible
		// (the CSV may move; the checkpoint does not). Readers need not wait
		// for it, and no other goroutine holds dv yet.
		dv.startCheckpointLocked(ver.Current())
	}
	return dv, nil
}

// Versioned exposes the snapshot ring for readers: Current, At, Epoch,
// monitor sessions. Do NOT call its Apply — deltas that bypass the log
// are exactly the data loss this type exists to prevent (and will
// desynchronise the epoch sequence, which Apply detects and refuses).
func (dv *DurableVersioned) Versioned() *Versioned { return dv.ver }

// Current returns the latest published snapshot.
func (dv *DurableVersioned) Current() *Data { return dv.ver.Current() }

// Epoch returns the latest published epoch.
func (dv *DurableVersioned) Epoch() uint64 { return dv.ver.Epoch() }

// At returns the retained snapshot at epoch (see Versioned.At).
func (dv *DurableVersioned) At(epoch uint64) (*Data, error) { return dv.ver.At(epoch) }

// Apply logs the delta and publishes the snapshot it derives, in that
// order: the record is in the WAL, fsynced under the default
// wal.SyncAlways, before any reader can observe the new head. On error nothing is published and
// nothing invalid is logged.
func (dv *DurableVersioned) Apply(adds []relation.Tuple, deletes []int) (*Data, error) {
	if err := dv.awaitBase(); err != nil {
		return nil, err
	}
	dv.dmu.Lock()
	defer dv.dmu.Unlock()
	if dv.closed {
		return nil, fmt.Errorf("master: durable lineage closed")
	}
	next, err := dv.ver.Current().ApplyDelta(adds, deletes)
	if err != nil {
		return nil, err
	}
	// Stamp the record with the root this delta produces: recovery and
	// followers re-derive it and refuse the epoch on a mismatch.
	root, _ := next.AuthRoot()
	rec := wal.Record{Epoch: next.Epoch(), Adds: adds, Deletes: deletes, Root: root[:]}
	if err := dv.log.Append(rec); err != nil {
		return nil, err
	}
	dv.ver.publishDerived(next)
	if dv.every > 0 && dv.ckpt == nil && next.Epoch()-dv.ckptEpoch >= uint64(dv.every) {
		// The delta is already durable in the log; a checkpoint failure
		// costs disk, not data, and is counted where it happens.
		dv.startCheckpointLocked(next)
	}
	return next, nil
}

// awaitBase returns once a checkpoint is durable in dir — at once on any
// open but the first of a directory, whose base checkpoint it waits for.
// When that checkpoint failed and none is in flight it starts it again, and
// returns that attempt's error if it fails too.
func (dv *DurableVersioned) awaitBase() error {
	var retry *checkpointRun
	for {
		dv.dmu.Lock()
		based, closed, run := dv.based, dv.closed, dv.ckpt
		if !based && !closed && run == nil && retry == nil {
			run = dv.startCheckpointLocked(dv.ver.Current())
			retry = run
		}
		dv.dmu.Unlock()
		switch {
		case based:
			return nil
		case closed:
			return fmt.Errorf("master: durable lineage closed")
		case run == nil:
			return retry.err
		}
		<-run.done
	}
}

// Checkpoint forces an arena checkpoint of the current head and truncates
// the WAL it covers, returning once that checkpoint is durable (or has
// failed). A checkpoint already in flight is waited for first.
func (dv *DurableVersioned) Checkpoint() error {
	for {
		dv.dmu.Lock()
		if dv.closed {
			dv.dmu.Unlock()
			return fmt.Errorf("master: durable lineage closed")
		}
		run, mine := dv.ckpt, false
		if run == nil {
			run, mine = dv.startCheckpointLocked(dv.ver.Current()), true
		}
		dv.dmu.Unlock()
		<-run.done
		if mine {
			return run.err
		}
	}
}

// startCheckpointLocked pins head — the current head, an immutable
// snapshot — as the next checkpoint and hands it to a goroutine of its own.
// The WAL is rolled first so that every record at or before head's epoch
// sits in a sealed segment: deltas appended while the image is written land
// in a new one, and the truncation at the end can still reclaim everything
// the image covers. (A roll that fails poisons the log like any failed
// seal; the checkpoint proceeds and the next Append reports it.) Caller
// holds dv.dmu and has checked dv.ckpt == nil.
func (dv *DurableVersioned) startCheckpointLocked(head *Data) *checkpointRun {
	_ = dv.log.Roll()
	run := &checkpointRun{done: make(chan struct{})}
	dv.ckpt = run
	go dv.runCheckpoint(run, head, time.Now())
	return run
}

// runCheckpoint writes head's arena atomically+durably through the FS seam
// WITHOUT the write lock, then takes it to advance ckptEpoch and truncate
// the WAL through head's epoch. It counts failures by phase: a failure
// before the rename+dirsync completes is a CheckpointFailure (no new
// durable checkpoint exists); a failure after it is a TruncateFailure only
// — the checkpoint IS durable, ckptEpoch advances, and only the log
// housekeeping is behind.
func (dv *DurableVersioned) runCheckpoint(run *checkpointRun, head *Data, began time.Time) {
	err := head.saveArenaAtomic(dv.fsys, filepath.Join(dv.dir, CheckpointFile), dv.sigma)
	dv.dmu.Lock()
	if err != nil {
		dv.ckptFails++
		run.err = fmt.Errorf("master: checkpoint: %w", err)
	} else {
		dv.based = true
		dv.ckptEpoch = head.Epoch()
		if err := dv.log.TruncateThrough(head.Epoch()); err != nil {
			dv.truncFails++
			run.err = fmt.Errorf("master: checkpoint durable at epoch %d, wal truncation pending: %w", head.Epoch(), err)
		}
		dv.lastCkptMs = float64(time.Since(began)) / float64(time.Millisecond)
	}
	dv.ckpt = nil
	dv.dmu.Unlock()
	close(run.done)
}

// Close waits for a checkpoint in flight to become durable (or be counted
// failed), then flushes and closes the WAL. The snapshot ring stays
// readable; further Applies fail.
func (dv *DurableVersioned) Close() error {
	dv.dmu.Lock()
	if dv.closed {
		dv.dmu.Unlock()
		return nil
	}
	dv.closed = true // no Apply or Checkpoint starts another from here on
	dv.dmu.Unlock()
	dv.waitCheckpoint()
	return dv.log.Close()
}

// waitCheckpoint returns once the checkpoint in flight at the time of the
// call, if any, is durable and truncated, or counted failed.
func (dv *DurableVersioned) waitCheckpoint() {
	dv.dmu.Lock()
	run := dv.ckpt
	dv.dmu.Unlock()
	if run != nil {
		<-run.done
	}
}

// Durability reports the current durability state.
func (dv *DurableVersioned) Durability() DurabilityStats {
	dv.dmu.Lock()
	defer dv.dmu.Unlock()
	head := dv.ver.Epoch()
	return DurabilityStats{
		Epoch:              head,
		CheckpointEpoch:    dv.ckptEpoch,
		SinceCheckpoint:    int(head - dv.ckptEpoch),
		CheckpointFailures: dv.ckptFails,
		TruncateFailures:   dv.truncFails,
		CheckpointInFlight: dv.ckpt != nil,
		LastCheckpointMs:   dv.lastCkptMs,
		WAL:                dv.log.Stats(),
		Recovery:           dv.recovery,
	}
}

// TailWAL streams acknowledged WAL records with epoch > after to fn, in
// epoch order (see wal.Log.Tail) — the leader half of epoch shipping.
// Safe to call concurrently with Apply and Checkpoint.
func (dv *DurableVersioned) TailWAL(after uint64, fn func(wal.Record) error) (int, error) {
	return dv.log.Tail(after, fn)
}

// WALSynced reports the WAL shipping watermark and its advance channel
// (see wal.Log.Synced).
func (dv *DurableVersioned) WALSynced() (uint64, <-chan struct{}) {
	return dv.log.Synced()
}

// CheckpointImage returns the raw bytes of the newest durable arena
// checkpoint together with its epoch: what a follower that fell behind
// the WAL loads to catch up; on a first open it waits for the base
// checkpoint. The epoch is read from the image's own header, so the two
// always correspond — a background checkpoint may rename a newer
// image into place at any moment, and that image is then simply the one
// returned.
func (dv *DurableVersioned) CheckpointImage() ([]byte, uint64, error) {
	if err := dv.awaitBase(); err != nil {
		return nil, 0, fmt.Errorf("master: checkpoint image: %w", err)
	}
	raw, err := dv.fsys.ReadFile(filepath.Join(dv.dir, CheckpointFile))
	if err != nil {
		return nil, 0, fmt.Errorf("master: checkpoint image: %w", err)
	}
	if len(raw) < arenaHeaderSize || string(raw[hdrMagic:hdrMagic+8]) != arenaMagic {
		return nil, 0, fmt.Errorf("master: checkpoint image: %w",
			&SnapshotError{Section: "header", Offset: 0, Msg: "not an arena image"})
	}
	return raw, binary.LittleEndian.Uint64(raw[hdrEpoch:]), nil
}
