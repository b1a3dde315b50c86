// Package wal is a segmented, CRC-framed write-ahead log for master delta
// batches: the durability layer under master.DurableVersioned. Every
// ApplyDelta batch is appended as one epoch-stamped record BEFORE the new
// snapshot head is published, so a process that crashes and restarts can
// reconstruct the exact lineage by loading the last arena checkpoint and
// replaying the log tail.
//
// The log is a directory of segment files named %020d.wal after the epoch
// of their first record. Records never span segments; a segment seals
// when it crosses Options.SegmentBytes and the next record opens a new
// one. Once an arena checkpoint covers an epoch, TruncateThrough removes
// the segments it makes redundant — oldest first, so a crash mid-removal
// always leaves a contiguous epoch suffix.
//
// Durability is governed by Options.Sync:
//
//   - SyncAlways: fsync after every Append — an Append that returned is
//     durable. The policy of every durable lineage.
//   - SyncNever: leave flushing to the OS (benchmarks, and crash sweeps
//     that want many cadences cheaply).
//
// Either way a record is acknowledged — counted in the log's end, visible
// to Replay, Tail and Synced — only once Append has done what the policy
// asks of it. There is one watermark, the acknowledged end: a record whose
// write or fsync failed is never acknowledged, and the log refuses every
// later Append until it is reopened.
//
// Open validates every frame of every segment eagerly (CRC, length
// bounds, epoch contiguity — the areader discipline of the arena loader),
// reading only each frame's epoch. Replay, Tail and the shipping stream's
// ReadFrame (record.go) verify frames through the same check, checkFrame;
// what a bad frame means is each reader's own. For Open, the one
// repairable failure is a torn TAIL: trailing bytes of the LAST
// segment that do not parse as complete, checksum-valid frames are
// exactly what a crash mid-write leaves behind, and Open truncates them
// (reported in Stats, never an error). Every other failure — a bad frame
// in the middle of the log, an epoch gap, a checksum-valid record that
// does not decode — is a typed *CorruptError matching ErrWALCorrupt:
// truncating there would silently drop acknowledged records, so the log
// refuses to guess.
//
// All file I/O flows through the FS seam (fs.go), which is how the
// crash-injection harness (walfault) proves the recovery contract at
// every byte and sync boundary.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	iofs "io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// SyncPolicy selects when appended records are fsynced.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every Append (durable once Append returns).
	SyncAlways SyncPolicy = iota
	// SyncNever never fsyncs explicitly; the OS flushes when it pleases.
	SyncNever
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncNever:
		return "off"
	}
	return fmt.Sprintf("SyncPolicy(%d)", int(p))
}

const (
	// DefaultSegmentBytes is the roll threshold when Options.SegmentBytes
	// is zero.
	DefaultSegmentBytes = 64 << 20

	segmentSuffix = ".wal"
)

// Options configures Open.
type Options struct {
	// Sync is the fsync policy (default SyncAlways).
	Sync SyncPolicy
	// SegmentBytes rolls the active segment when it would grow past this
	// size (default DefaultSegmentBytes).
	SegmentBytes int64
	// FS overrides the filesystem (default OS). The crash-injection
	// harness threads walfault.FS through here.
	FS FS
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = DefaultSegmentBytes
	}
	if o.FS == nil {
		o.FS = OS
	}
	return o
}

// segmentName is the filename of the segment whose first record is epoch.
func segmentName(epoch uint64) string {
	return fmt.Sprintf("%020d%s", epoch, segmentSuffix)
}

// segment is one validated segment file.
type segment struct {
	path  string
	start uint64 // epoch of the first record (== the filename number)
	last  uint64 // epoch of the last record
	size  int64  // bytes after tail repair
}

// Stats is the observable state of a log: served on certainfixd /healthz
// and asserted by the recovery tests.
type Stats struct {
	// Dir is the log directory.
	Dir string
	// Policy is the fsync policy string ("always" or "off").
	Policy string
	// Segments is the number of live segment files (including the active
	// one).
	Segments int
	// Bytes is the total size of the live segments.
	Bytes int64
	// FirstEpoch/LastEpoch bound the acknowledged records currently in the
	// log (both zero when the log holds none).
	FirstEpoch, LastEpoch uint64
	// TornBytes is how many trailing bytes Open truncated from the last
	// segment (0 for a clean open) — the crash-repair breadcrumb.
	TornBytes int64
}

// Log is an open write-ahead log. Every method — Append, Roll,
// TruncateThrough, Replay, Tail, Synced, Stats, Close — is safe for
// concurrent use. Readers never see past the acknowledged end (see
// Synced), so a Tail racing Append observes only complete, acknowledged
// records.
type Log struct {
	dir  string
	opts Options

	mu       sync.Mutex
	sealed   []segment     // ascending start epochs
	active   File          // nil until the first append after open/truncate
	activeAt segment       // the active segment, up to its last acknowledged record
	haveAny  bool          // any acknowledged record in the log (sealed or active)
	first    uint64        // first epoch in the log (valid when haveAny)
	last     uint64        // last acknowledged epoch (valid when haveAny)
	syncCh   chan struct{} // handed out by Synced; closed and cleared when last advances
	dirty    bool          // active segment has unsynced writes
	torn     int64         // bytes truncated at Open
	encBuf   []byte
	failed   error // sticky: a failed write or fsync leaves an unacknowledged frame behind
	closed   bool
}

// Open validates the log in dir (creating the directory if needed),
// repairs a torn tail, and returns a Log positioned to append. Corruption
// anywhere but the tail fails with a *CorruptError matching ErrWALCorrupt.
func Open(dir string, opts Options) (*Log, error) {
	opts = opts.withDefaults()
	fs := opts.FS
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", dir, err)
	}
	entries, err := fs.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", dir, err)
	}
	var segs []segment
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, segmentSuffix) {
			continue
		}
		start, err := strconv.ParseUint(strings.TrimSuffix(name, segmentSuffix), 10, 64)
		if err != nil {
			continue // not a segment file
		}
		segs = append(segs, segment{path: filepath.Join(dir, name), start: start})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].start < segs[j].start })

	l := &Log{dir: dir, opts: opts}
	prevLast := uint64(0)
	havePrev := false
	for i := range segs {
		isLast := i == len(segs)-1
		s, removed, err := l.scanSegment(&segs[i], isLast, havePrev, prevLast)
		if err != nil {
			return nil, err
		}
		if removed {
			continue // empty after tail repair: the file is gone
		}
		l.sealed = append(l.sealed, s)
		if !l.haveAny {
			l.first = s.start
			l.haveAny = true
		}
		l.last = s.last
		prevLast, havePrev = s.last, true
	}
	return l, nil
}

// scanSegment validates every frame of one segment, repairing (or, when
// the repair leaves nothing, removing) a torn tail on the last segment.
func (l *Log) scanSegment(s *segment, isLast, havePrev bool, prevLast uint64) (segment, bool, error) {
	fs := l.opts.FS
	b, err := fs.ReadFile(s.path)
	if err != nil {
		return segment{}, false, fmt.Errorf("wal: open: %w", err)
	}
	corrupt := func(off int, format string, args ...any) error {
		return &CorruptError{Path: s.path, Offset: int64(off), Msg: fmt.Sprintf(format, args...)}
	}

	off := 0 // end of the last intact frame
	expect := s.start
	var torn *frameError
	for off < len(b) {
		payload, ferr := checkFrame(b[off:])
		if ferr != nil {
			torn = ferr
			break
		}
		// The frame is intact on disk: from here on, failures are logic
		// corruption, never a torn write.
		epoch, n := binary.Uvarint(payload)
		if n <= 0 {
			return segment{}, false, corrupt(off, "checksum-valid record with undecodable epoch")
		}
		if epoch != expect {
			return segment{}, false, corrupt(off, "epoch %d where %d was expected", epoch, expect)
		}
		expect++
		off += frameHeaderSize + len(payload)
	}

	if torn != nil && !isLast {
		// A torn frame can only exist where a crash stopped the writer:
		// the end of the newest segment. Anywhere else, truncating would
		// drop the records behind it.
		return segment{}, false, corrupt(off, "bad frame inside a sealed segment (%v)", torn)
	}
	if expect == s.start {
		if !isLast {
			// The writer seals a segment only after a record lands in it.
			return segment{}, false, corrupt(-1, "segment holds no records")
		}
		// Nothing valid survived — the file is empty (crash between
		// create and first write) or all torn: drop it; the epoch it was
		// going to hold will be re-appended under the same name.
		l.torn += int64(len(b))
		if err := fs.Remove(s.path); err != nil {
			return segment{}, false, fmt.Errorf("wal: repair %s: %w", s.path, err)
		}
		if err := fs.SyncDir(l.dir); err != nil {
			return segment{}, false, fmt.Errorf("wal: repair %s: %w", l.dir, err)
		}
		return segment{}, true, nil
	}
	if torn != nil {
		l.torn += int64(len(b) - off)
		f, err := fs.OpenFile(s.path, os.O_WRONLY, 0o644)
		if err != nil {
			return segment{}, false, fmt.Errorf("wal: repair %s: %w", s.path, err)
		}
		if err := f.Truncate(int64(off)); err != nil {
			f.Close()
			return segment{}, false, fmt.Errorf("wal: repair %s: %w", s.path, err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return segment{}, false, fmt.Errorf("wal: repair %s: %w", s.path, err)
		}
		if err := f.Close(); err != nil {
			return segment{}, false, fmt.Errorf("wal: repair %s: %w", s.path, err)
		}
	}
	if havePrev && s.start != prevLast+1 {
		return segment{}, false, corrupt(-1, "segment starts at epoch %d, previous segment ended at %d", s.start, prevLast)
	}
	s.last = expect - 1
	s.size = int64(off)
	return *s, false, nil
}

// Replay streams every record with epoch > after to fn, in epoch order,
// verifying the stream starts at after+1 and stays contiguous (a gap is
// a *CorruptError: recovery must not silently skip acknowledged epochs).
// It returns the number of records replayed. Replay is safe to call at
// any time — concurrently with Append if need be — and reads only up to
// the acknowledged end, so it never observes a half-written frame.
func (l *Log) Replay(after uint64, fn func(Record) error) (int, error) {
	return l.scanFrom(after, true, fn)
}

// Tail streams every acknowledged record with epoch > after to fn, in
// epoch order. It is the shipping read: safe under concurrent Append and
// TruncateThrough, bounded by the acknowledged end (see Synced). When the
// log no longer holds epoch after+1 — TruncateThrough removed it behind a
// checkpoint, possibly racing this call — Tail returns a *TruncatedError
// matching ErrTruncated after delivering what it could: the caller must
// catch up from the checkpoint and resume from its epoch. A log holding
// no records returns (0, nil); the caller disambiguates "up to date" from
// "everything truncated" with the checkpoint epoch it tracks anyway.
func (l *Log) Tail(after uint64, fn func(Record) error) (int, error) {
	return l.scanFrom(after, false, fn)
}

// Synced reports the shipping watermark — the newest acknowledged epoch,
// which is the newest epoch Tail may deliver — and a channel that is
// closed the next time it advances (or the log closes). A shipping loop
// waits on the channel, then calls Tail from its last delivered epoch.
func (l *Log) Synced() (uint64, <-chan struct{}) {
	l.mu.Lock()
	defer l.mu.Unlock()
	// Made on demand: an append on a log nobody tails allocates nothing.
	if l.syncCh == nil {
		l.syncCh = make(chan struct{})
		if l.closed {
			close(l.syncCh) // the watermark will never advance again
		}
	}
	return l.last, l.syncCh
}

// tailView is an immutable read plan for one segment: scan path up to
// limit bytes, expecting epochs start..last. Taken under l.mu, used
// outside it.
type tailView struct {
	path        string
	start, last uint64
	limit       int64
}

// scanFrom is the shared scanner under Replay (strict) and Tail. It
// snapshots the segment list under l.mu, then reads files without the
// lock: sealed segments are immutable, and the active segment is only
// ever appended to past its acknowledged size, our limit. Every frame is
// bounds-checked and CRC-verified before slicing — the file may
// legitimately differ from what Open validated (truncation races,
// external mutation), and a short read must surface as a typed error,
// never a panic.
func (l *Log) scanFrom(after uint64, strict bool, fn func(Record) error) (int, error) {
	l.mu.Lock()
	segs := make([]tailView, 0, len(l.sealed)+1)
	for _, s := range l.sealed {
		segs = append(segs, tailView{s.path, s.start, s.last, s.size})
	}
	if l.active != nil && l.activeAt.size > 0 {
		segs = append(segs, tailView{l.activeAt.path, l.activeAt.start, l.activeAt.last, l.activeAt.size})
	}
	l.mu.Unlock()

	replayed := 0
	expect := after + 1
	for _, s := range segs {
		if s.last <= after {
			continue // fully covered by the caller's position
		}
		if s.start > expect {
			if !strict && replayed == 0 {
				// The epochs between the caller and the log's first record
				// were truncated behind a checkpoint: recoverable.
				return 0, &TruncatedError{After: after, First: s.start}
			}
			return replayed, &CorruptError{Path: s.path, Offset: -1,
				Msg: fmt.Sprintf("epoch gap: log resumes at %d, caller covered through %d", s.start, expect-1)}
		}
		b, err := l.opts.FS.ReadFile(s.path)
		if err != nil {
			if !strict && errors.Is(err, iofs.ErrNotExist) {
				// Lost a race with TruncateThrough: the segment's epochs are
				// behind a durable checkpoint now. Catch up from there: the
				// caller holds every epoch through expect-1, and the log
				// now starts where Stats, under l.mu, says.
				return replayed, &TruncatedError{After: expect - 1, First: l.Stats().FirstEpoch}
			}
			return replayed, fmt.Errorf("wal: replay: %w", err)
		}
		if s.limit < int64(len(b)) {
			b = b[:s.limit] // never read past the acknowledged end
		}
		corrupt := func(off int, format string, args ...any) error {
			return &CorruptError{Path: s.path, Offset: int64(off), Msg: fmt.Sprintf(format, args...)}
		}
		for off, next := 0, 0; off < len(b); off = next {
			payload, ferr := checkFrame(b[off:])
			if ferr != nil {
				return replayed, corrupt(off, "%v", ferr)
			}
			next = off + frameHeaderSize + len(payload)
			rec, err := decodePayload(payload)
			if err != nil {
				return replayed, corrupt(off, "checksum-valid record does not decode: %v", err)
			}
			if rec.Epoch <= after {
				continue
			}
			if rec.Epoch != expect {
				return replayed, corrupt(off,
					"epoch gap: log resumes at %d, caller covered through %d", rec.Epoch, expect-1)
			}
			if err := fn(rec); err != nil {
				return replayed, err
			}
			expect++
			replayed++
		}
	}
	return replayed, nil
}

// Append logs one record. The record's epoch must extend the log by
// exactly one (the first record after a checkpoint may start anywhere).
// The record is acknowledged when Append returns nil: under SyncAlways
// after its fsync, under SyncNever after its write. A failed write or
// fsync acknowledges nothing and poisons the log.
func (l *Log) Append(r Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("wal: append: log closed")
	}
	if l.failed != nil {
		return fmt.Errorf("wal: append after failed write (reopen to recover): %w", l.failed)
	}
	if l.haveAny && r.Epoch != l.last+1 {
		return fmt.Errorf("wal: append epoch %d does not extend log at epoch %d", r.Epoch, l.last)
	}
	buf, err := AppendFrame(l.encBuf[:0], r)
	if err != nil {
		return err
	}
	l.encBuf = buf

	if l.active != nil && l.activeAt.size+int64(len(buf)) > l.opts.SegmentBytes && l.activeAt.size > 0 {
		if err := l.sealActiveLocked(); err != nil {
			return err
		}
	}
	if l.active == nil {
		if err := l.openActiveLocked(r.Epoch); err != nil {
			return err
		}
	}
	if _, err := l.active.Write(buf); err != nil {
		l.failed = err
		return fmt.Errorf("wal: append: %w", err)
	}
	l.dirty = true
	if l.opts.Sync == SyncAlways {
		if err := l.syncLocked(); err != nil {
			return err
		}
	}
	l.activeAt.last = r.Epoch
	l.activeAt.size += int64(len(buf))
	if !l.haveAny {
		l.first = r.Epoch
		l.haveAny = true
	}
	l.last = r.Epoch
	l.wakeSyncedLocked()
	return nil
}

// openActiveLocked creates the segment that will hold epoch as its first
// record, making its directory entry durable before any record lands in
// it (a synced record in an unlinked file would not survive the crash).
func (l *Log) openActiveLocked(epoch uint64) error {
	path := filepath.Join(l.dir, segmentName(epoch))
	f, err := l.opts.FS.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		l.failed = err
		return fmt.Errorf("wal: create segment: %w", err)
	}
	if err := l.opts.FS.SyncDir(l.dir); err != nil {
		f.Close()
		l.failed = err
		return fmt.Errorf("wal: create segment: %w", err)
	}
	l.active = f
	l.activeAt = segment{path: path, start: epoch, last: epoch - 1}
	return nil
}

// sealActiveLocked syncs, closes and retires the active segment.
func (l *Log) sealActiveLocked() error {
	if err := l.syncLocked(); err != nil {
		return err
	}
	if err := l.active.Close(); err != nil {
		l.failed = err
		return fmt.Errorf("wal: seal segment: %w", err)
	}
	l.sealed = append(l.sealed, l.activeAt)
	l.active = nil
	l.activeAt = segment{}
	return nil
}

// Roll seals the active segment, if it holds a record, so the next Append
// opens a new one. A checkpoint taken at the log's last epoch rolls first:
// every record it covers then sits in a sealed segment, which
// TruncateThrough can remove however many records are appended while the
// checkpoint is still being written (it seals the active segment itself
// only when the checkpoint covers that segment whole).
func (l *Log) Roll() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("wal: roll: log closed")
	}
	if l.active == nil || l.activeAt.size == 0 {
		return nil
	}
	return l.sealActiveLocked()
}

// syncLocked fsyncs the active segment's unsynced writes.
func (l *Log) syncLocked() error {
	if l.failed != nil {
		return fmt.Errorf("wal: sync after failed write: %w", l.failed)
	}
	if l.active == nil || !l.dirty {
		return nil
	}
	if err := l.active.Sync(); err != nil {
		l.failed = err
		return fmt.Errorf("wal: sync: %w", err)
	}
	l.dirty = false
	return nil
}

// wakeSyncedLocked wakes the Synced waiters: the acknowledged end moved.
func (l *Log) wakeSyncedLocked() {
	if l.syncCh != nil {
		close(l.syncCh)
		l.syncCh = nil
	}
}

// TruncateThrough removes every segment whose records are all covered by
// a checkpoint at epoch (the caller guarantees a checkpoint at least that
// new is durable). Segments are removed oldest-first, so a crash mid-way
// always leaves a contiguous epoch suffix behind the checkpoint. The
// active segment is sealed first when the checkpoint covers it entirely.
//
// A Remove or directory-sync failure here is housekeeping, not data loss:
// the error is returned so the caller can count and retry it, but the
// writer is NOT poisoned — Append keeps working, and the next
// TruncateThrough picks up where this one stopped. (Sealing the active
// segment is write-path work and does poison on failure, as every
// sync/close does.)
func (l *Log) TruncateThrough(epoch uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("wal: truncate: log closed")
	}
	if l.failed != nil {
		return fmt.Errorf("wal: truncate after failed write: %w", l.failed)
	}
	if l.active != nil && l.activeAt.last <= epoch && l.activeAt.size > 0 {
		if err := l.sealActiveLocked(); err != nil {
			return err
		}
	}
	removed := 0
	var rmErr error
	for _, s := range l.sealed {
		if s.last > epoch {
			break
		}
		if err := l.opts.FS.Remove(s.path); err != nil && !errors.Is(err, iofs.ErrNotExist) {
			rmErr = err // keep the segment listed; a later truncate retries it
			break
		}
		removed++
	}
	if removed > 0 {
		l.sealed = append(l.sealed[:0], l.sealed[removed:]...)
		if err := l.opts.FS.SyncDir(l.dir); err != nil && rmErr == nil {
			rmErr = err
		}
		switch {
		case len(l.sealed) > 0:
			l.first = l.sealed[0].start
		case l.active != nil && l.activeAt.size > 0:
			l.first = l.activeAt.start
		default:
			l.haveAny = l.last > epoch // all records removed ⇒ empty log
			if !l.haveAny {
				l.first, l.last = 0, 0
			}
		}
	}
	if rmErr != nil {
		return fmt.Errorf("wal: truncate (retryable, log still appendable): %w", rmErr)
	}
	return nil
}

// Close flushes, syncs and closes the log. Safe to call once; the log is
// unusable afterwards.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	var firstErr error
	if l.active != nil {
		if l.failed == nil {
			if err := l.syncLocked(); err != nil {
				firstErr = err
			}
		}
		if err := l.active.Close(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("wal: close: %w", err)
		}
		l.active = nil
	}
	// Wake Synced waiters and leave the channel closed: the watermark will
	// never advance again, so a waiter must not block on a closed log.
	if l.syncCh != nil {
		close(l.syncCh)
	}
	return firstErr
}

// Stats reports the log's current shape (see Stats).
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := Stats{
		Dir:       l.dir,
		Policy:    l.opts.Sync.String(),
		TornBytes: l.torn,
	}
	if l.haveAny {
		st.FirstEpoch, st.LastEpoch = l.first, l.last
	}
	for _, s := range l.sealed {
		st.Segments++
		st.Bytes += s.size
	}
	if l.active != nil {
		st.Segments++
		st.Bytes += l.activeAt.size
	}
	return st
}
