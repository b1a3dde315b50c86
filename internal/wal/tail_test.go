package wal

// The shipping-read contract: Tail/Replay bounded by the watermark and
// safe under concurrent Append/TruncateThrough, truncation typed as
// ErrTruncated, and housekeeping failures that must not poison the
// writer. The two regression tests at the top pin the bugs a live tailer
// flushed out of the PR-7 code: an unbounded frame slice (panic on a
// short read) and a truncate failure bricking Append.

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestReplayShortReadIsTypedNotPanic pins the bounds-check regression:
// a segment that shrank after Open (external mutation, admin mishap)
// used to panic Replay mid-slice; it must surface as *CorruptError.
func TestReplayShortReadIsTypedNotPanic(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendAll(t, l, 1, 10)

	// Cut the segment mid-frame behind the log's back: the cached sizes
	// now promise more bytes than the file holds.
	seg := lastSegment(t, dir)
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	_, err = l.Replay(0, func(Record) error { return nil })
	var ce *CorruptError
	if !errors.Is(err, ErrWALCorrupt) || !errors.As(err, &ce) {
		t.Fatalf("short read must fail as *CorruptError, got %v", err)
	}
	if _, err := l.Tail(0, func(Record) error { return nil }); !errors.Is(err, ErrWALCorrupt) {
		t.Fatalf("Tail over the short read must fail typed too, got %v", err)
	}
}

// failingRemoveFS injects Remove failures: the disk-janitoring error
// TruncateThrough must survive. (walfault's crash model fails every op
// after the injection point, which is the wrong shape for "the error was
// transient and the writer must keep going" — this wrapper is that
// shape.)
type failingRemoveFS struct {
	FS
	failures atomic.Int32 // remaining Remove calls to fail
}

func (f *failingRemoveFS) Remove(name string) error {
	if f.failures.Add(-1) >= 0 {
		return fmt.Errorf("remove %s: injected EIO", name)
	}
	return f.FS.Remove(name)
}

// TestTruncateFailureDoesNotPoisonAppend pins the writer-poisoning
// regression: a failed segment Remove is housekeeping, not data loss —
// Append must keep working and a later TruncateThrough must retry.
func TestTruncateFailureDoesNotPoisonAppend(t *testing.T) {
	fsys := &failingRemoveFS{FS: OS}
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncNever, SegmentBytes: 256, FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendAll(t, l, 1, 60)
	segsBefore := l.Stats().Segments

	fsys.failures.Store(1)
	if err := l.TruncateThrough(30); err == nil {
		t.Fatal("truncate with a failing Remove reported success")
	}

	// The writer is alive: appends, syncs and replays all still work.
	appendAll(t, l, 61, 70)
	l.mu.Lock()
	err = l.syncLocked()
	l.mu.Unlock()
	if err != nil {
		t.Fatalf("sync after failed truncate: %v", err)
	}
	recs := replayAll(t, l, 30)
	if len(recs) != 40 || recs[len(recs)-1].Epoch != 70 {
		t.Fatalf("replay after failed truncate: %d records, last %d", len(recs), recs[len(recs)-1].Epoch)
	}

	// And the truncate is retryable: the next call removes what the
	// failed one could not.
	if err := l.TruncateThrough(30); err != nil {
		t.Fatalf("retried truncate: %v", err)
	}
	if after := l.Stats().Segments; after >= segsBefore {
		t.Fatalf("retried truncate removed nothing: %d → %d segments", segsBefore, after)
	}
	if recs := replayAll(t, l, 30); len(recs) != 40 {
		t.Fatalf("records lost by retried truncate: %d", len(recs))
	}
}

// failingSyncFS fails the failAt-th File.Sync (counting from 1) across
// every file it opens; every other call passes through to FS.
type failingSyncFS struct {
	FS
	failAt int32
	syncs  atomic.Int32
}

func (f *failingSyncFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &failingSyncFile{File: file, fs: f}, nil
}

type failingSyncFile struct {
	File
	fs *failingSyncFS
}

func (f *failingSyncFile) Sync() error {
	if f.fs.syncs.Add(1) == f.fs.failAt {
		return errors.New("injected fsync EIO")
	}
	return f.File.Sync()
}

// TestFailedSyncIsNotAcknowledged: under SyncAlways the log's one
// watermark is the acknowledged end. An Append whose fsync fails
// acknowledges nothing — Tail, Replay, Synced and Stats all stop at the
// record before it, Synced's channel does not fire — and the log refuses
// every later Append.
func TestFailedSyncIsNotAcknowledged(t *testing.T) {
	const k = 4
	fsys := &failingSyncFS{FS: OS, failAt: k}
	l, err := Open(t.TempDir(), Options{Sync: SyncAlways, FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendAll(t, l, 1, k-1)
	_, ch := l.Synced()
	if err := l.Append(testRecord(k)); err == nil {
		t.Fatalf("Append(%d) with a failing fsync reported success", k)
	}

	collect := func(name string, read func(uint64, func(Record) error) (int, error)) {
		t.Helper()
		var got []uint64
		if _, err := read(0, func(r Record) error { got = append(got, r.Epoch); return nil }); err != nil {
			t.Fatalf("%s after the failed fsync: %v", name, err)
		}
		if len(got) != k-1 || got[0] != 1 || got[len(got)-1] != k-1 {
			t.Fatalf("%s after the failed fsync delivered %v, want 1..%d", name, got, k-1)
		}
	}
	collect("Tail", l.Tail)
	collect("Replay", l.Replay)
	if epoch, _ := l.Synced(); epoch != k-1 {
		t.Fatalf("Synced = %d after the failed fsync, want %d", epoch, k-1)
	}
	select {
	case <-ch:
		t.Fatal("Synced channel closed by an unacknowledged record")
	default:
	}
	if st := l.Stats(); st.LastEpoch != k-1 {
		t.Fatalf("Stats().LastEpoch = %d after the failed fsync, want %d", st.LastEpoch, k-1)
	}
	for _, e := range []uint64{k, k + 1} {
		if err := l.Append(testRecord(e)); err == nil {
			t.Fatalf("Append(%d) after the failed fsync was accepted", e)
		}
	}
}

// TestAppendUntailedAllocatesNothing: the watermark's wake-up channel
// exists only once Synced has handed it out, so an acknowledged Append on
// a log nobody tails — every UpdateMaster on a leader without followers —
// allocates nothing, under either policy that acknowledges inside Append.
func TestAppendUntailedAllocatesNothing(t *testing.T) {
	for _, p := range []SyncPolicy{SyncNever, SyncAlways} {
		l, err := Open(t.TempDir(), Options{Sync: p})
		if err != nil {
			t.Fatal(err)
		}
		rec := testRecord(1)
		rec.Epoch = 0
		allocs := testing.AllocsPerRun(50, func() {
			rec.Epoch++
			if err := l.Append(rec); err != nil {
				t.Fatal(err)
			}
		})
		l.Close()
		if allocs != 0 {
			t.Errorf("fsync %s: %v allocs per untailed Append, want 0", p, allocs)
		}
	}
}

// TestTailTruncatedIsTyped: asking for epochs behind a truncation is the
// recoverable ErrTruncated, not corruption.
func TestTailTruncatedIsTyped(t *testing.T) {
	l, err := Open(t.TempDir(), Options{Sync: SyncNever, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendAll(t, l, 1, 60)
	if err := l.TruncateThrough(30); err != nil {
		t.Fatal(err)
	}

	_, err = l.Tail(0, func(Record) error { return nil })
	var te *TruncatedError
	if !errors.Is(err, ErrTruncated) || !errors.As(err, &te) {
		t.Fatalf("Tail behind truncation: want *TruncatedError, got %v", err)
	}
	if te.First == 0 || te.First > 31 {
		t.Fatalf("TruncatedError.First = %d, want the log's first epoch ≤ 31", te.First)
	}
	// Tailing from the surviving range works; so does Tail at the head.
	if n, err := l.Tail(te.First-1, func(Record) error { return nil }); err != nil || n != 60-int(te.First-1) {
		t.Fatalf("Tail from %d: %d records, err %v", te.First-1, n, err)
	}
	if n, err := l.Tail(60, func(Record) error { return nil }); err != nil || n != 0 {
		t.Fatalf("Tail at head: %d records, err %v", n, err)
	}
}

// readHookFS runs hook once, just before the first ReadFile of path: the
// seam through which a test removes a segment between a reader's plan and
// its read.
type readHookFS struct {
	FS
	path string
	hook func()
}

func (f *readHookFS) ReadFile(name string) ([]byte, error) {
	if name == f.path && f.hook != nil {
		hook := f.hook
		f.hook = nil
		hook()
	}
	return f.FS.ReadFile(name)
}

// TestTailTruncatedMidRead: a Tail that delivered the first segment and
// then finds the second removed — TruncateThrough ran between its plan and
// its read — reports the last epoch it delivered and the log's new first
// epoch, so the caller can tell exactly which epochs it must catch up.
func TestTailTruncatedMidRead(t *testing.T) {
	dir := t.TempDir()
	fsys := &readHookFS{FS: OS}
	l, err := Open(dir, Options{Sync: SyncNever, SegmentBytes: 256, FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendAll(t, l, 1, 60)
	paths, err := filepath.Glob(filepath.Join(dir, "*"+segmentSuffix))
	if err != nil || len(paths) < 3 {
		t.Fatalf("want ≥ 3 segments, got %v (err %v)", paths, err)
	}
	start := func(path string) uint64 {
		e, err := strconv.ParseUint(strings.TrimSuffix(filepath.Base(path), segmentSuffix), 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	second, third := start(paths[1]), start(paths[2])
	fsys.path = paths[1]
	fsys.hook = func() {
		if err := l.TruncateThrough(third - 1); err != nil {
			t.Error(err)
		}
	}

	pos := uint64(0)
	n, err := l.Tail(pos, func(r Record) error {
		if r.Epoch != pos+1 {
			return fmt.Errorf("tail gap: got %d at pos %d", r.Epoch, pos)
		}
		pos++
		return nil
	})
	var te *TruncatedError
	if !errors.As(err, &te) {
		t.Fatalf("Tail over a removed segment: want *TruncatedError, got %v", err)
	}
	if n != int(second-1) || te.After != second-1 || te.First != third {
		t.Fatalf("Tail delivered %d records and reported %+v; want %d records, After %d, First %d",
			n, *te, second-1, second-1, third)
	}
	if n, err := l.Tail(te.First-1, func(Record) error { return nil }); err != nil || n != 60-int(third-1) {
		t.Fatalf("Tail from %d: %d records, err %v", te.First-1, n, err)
	}
}

// TestReplayTailConcurrent is the enforced version of the Log's
// concurrency contract: Replay and Tail run against live Append and
// TruncateThrough (run under -race in CI). Each Tail call must deliver a
// contiguous ascending window, truncation must surface only as
// ErrTruncated, and the tailer must reach the final epoch.
func TestReplayTailConcurrent(t *testing.T) {
	const last = 300
	l, err := Open(t.TempDir(), Options{Sync: SyncAlways, SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	var wg sync.WaitGroup
	wg.Add(3)
	go func() { // writer: appends with periodic truncation behind it
		defer wg.Done()
		for e := uint64(1); e <= last; e++ {
			if err := l.Append(testRecord(e)); err != nil {
				t.Errorf("append %d: %v", e, err)
				return
			}
			if e%40 == 0 {
				if err := l.TruncateThrough(e - 30); err != nil {
					t.Errorf("truncate through %d: %v", e-30, err)
					return
				}
			}
		}
	}()
	go func() { // tailer: contiguous windows, typed truncation only
		defer wg.Done()
		pos := uint64(0)
		for pos < last {
			n, err := l.Tail(pos, func(r Record) error {
				if r.Epoch != pos+1 {
					return fmt.Errorf("tail gap: got %d at pos %d", r.Epoch, pos)
				}
				pos++
				return nil
			})
			if err != nil {
				var te *TruncatedError
				if errors.As(err, &te) && te.First > pos {
					pos = te.First - 1 // catch up past the truncation
					continue
				}
				t.Errorf("tail at %d: %v", pos, err)
				return
			}
			if n == 0 {
				epoch, ch := l.Synced()
				if epoch <= pos {
					select {
					case <-ch:
					case <-time.After(5 * time.Second):
						t.Errorf("no watermark advance past %d", pos)
						return
					}
				}
			}
		}
	}()
	go func() { // strict replayer from a position truncation never reaches
		defer wg.Done()
		for {
			top := uint64(0)
			if _, err := l.Replay(last-30, func(r Record) error {
				top = r.Epoch
				return nil
			}); err != nil {
				t.Errorf("concurrent Replay: %v", err)
				return
			}
			if top >= last {
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()
}

// TestFrameStreamRoundTrip: the exported wire codec matches the on-disk
// framing byte for byte and rejects a corrupted stream.
func TestFrameStreamRoundTrip(t *testing.T) {
	var buf []byte
	for e := uint64(1); e <= 20; e++ {
		var err error
		buf, err = AppendFrame(buf, testRecord(e))
		if err != nil {
			t.Fatal(err)
		}
	}
	br := &sliceReader{b: buf}
	for e := uint64(1); e <= 20; e++ {
		rec, err := ReadFrame(br)
		if err != nil {
			t.Fatalf("frame %d: %v", e, err)
		}
		if rec.Epoch != e {
			t.Fatalf("frame %d decoded epoch %d", e, rec.Epoch)
		}
	}
	if _, err := ReadFrame(br); err == nil {
		t.Fatal("read past the last frame succeeded")
	}

	buf[len(buf)-1] ^= 0xFF
	br = &sliceReader{b: buf}
	var lastErr error
	for {
		if _, lastErr = ReadFrame(br); lastErr != nil {
			break
		}
	}
	if !errors.Is(lastErr, ErrWALCorrupt) {
		t.Fatalf("corrupted stream: want ErrWALCorrupt, got %v", lastErr)
	}
}

// sliceReader is an io.Reader over a byte slice that returns short reads
// (1 byte at a time) to exercise ReadFrame's ReadFull handling.
type sliceReader struct {
	b   []byte
	off int
}

func (s *sliceReader) Read(p []byte) (int, error) {
	if s.off >= len(s.b) {
		return 0, io.EOF
	}
	p[0] = s.b[s.off]
	s.off++
	return 1, nil
}
