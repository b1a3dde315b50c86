// Package walfault is the crash-injection filesystem behind the WAL
// recovery proofs. It wraps a real wal.FS and models the one thing a
// power cut actually does: everything written since the last fsync may
// or may not be on disk.
//
// Writes do not reach the real file immediately — they buffer in a
// per-file pending slice, the simulated page cache. Sync flushes pending
// to the real file and fsyncs it, which is exactly the durability
// contract the WAL relies on. Every operation consumes budget (one unit
// per written byte, one per sync or metadata op); the operation that
// exhausts the budget "cuts power": a configurable fraction of the
// current file's pending bytes spill to the real file (0 — the cache was
// lost whole; 1 — it happened to flush; 1/2 — a torn write), every
// other file's pending is dropped, and from then on every operation
// fails with ErrCrashed.
//
// Because buffered bytes live in real files once spilled or synced, the
// post-crash disk state IS the real directory: recovery just reopens it
// with the plain wal.OS filesystem, exactly as a restarted process
// would. Running the same workload at every budget in [1, Spent()] and
// every spill fraction therefore proves recovery at every byte and sync
// boundary the workload ever crosses.
package walfault

import (
	"errors"
	"os"
	"sync"

	"repro/internal/wal"
)

// ErrCrashed is returned by every operation after the injected crash
// point. Workloads treat it the way a process treats a power cut: stop.
var ErrCrashed = errors.New("walfault: simulated crash")

// FS is a crash-injecting wal.FS. Create with New; share one FS per
// simulated process lifetime.
type FS struct {
	real wal.FS

	mu       sync.Mutex
	budget   int64 // remaining units; <0 at New means count but never crash
	infinite bool
	spent    int64
	spillNum int // fraction of pending spilled at crash: spillNum/spillDen
	spillDen int
	crashed  bool
	open     []*file
}

// New wraps real with a crash after budget units (bytes written + syncs
// + metadata ops). budget < 0 disables crashing and just counts — run
// the workload once that way, read Spent(), then sweep budgets 1..Spent.
// spillNum/spillDen is the fraction of the crashing file's unsynced
// bytes that happen to survive (0/1, 1/2 and 1/1 cover lost, torn and
// flushed caches).
func New(real wal.FS, budget int64, spillNum, spillDen int) *FS {
	if spillDen <= 0 {
		spillDen = 1
	}
	return &FS{
		real:     real,
		budget:   budget,
		infinite: budget < 0,
		spillNum: spillNum,
		spillDen: spillDen,
	}
}

// Spent reports the units consumed so far.
func (s *FS) Spent() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.spent
}

// Crashed reports whether the injected crash point was reached.
func (s *FS) Crashed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.crashed
}

// spend consumes n units; it reports false when doing so cuts the power.
// Caller holds mu.
func (s *FS) spend(n int64) bool {
	s.spent += n
	if s.infinite {
		return true
	}
	s.budget -= n
	return s.budget >= 0
}

// Crash cuts the power now, between operations, whatever budget remains:
// the crash point of a test that has steered concurrent writers into a
// particular interleaving. Every open file keeps the spill fraction of its
// unsynced bytes — no operation was in flight, so none is singled out.
func (s *FS) Crash() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.crashed {
		return
	}
	for _, o := range s.open {
		s.spill(o)
	}
	s.crashLocked(nil)
}

// spill lands the spill fraction of f's pending bytes on the real file.
func (s *FS) spill(f *file) {
	if n := len(f.pending) * s.spillNum / s.spillDen; n > 0 {
		// Best effort, like the disk itself: ignore errors.
		_, _ = f.real.Write(f.pending[:n])
		_ = f.real.Sync()
	}
	f.pending = nil
}

// crashLocked cuts power: spill the crashing file's pending fraction,
// drop everyone else's pending, fail everything from here on.
func (s *FS) crashLocked(f *file) {
	s.crashed = true
	if f != nil {
		s.spill(f)
	}
	for _, o := range s.open {
		o.pending = nil
		_ = o.real.Close()
	}
	s.open = nil
}

func (s *FS) OpenFile(name string, flag int, perm os.FileMode) (wal.File, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.crashed {
		return nil, ErrCrashed
	}
	rf, err := s.real.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	f := &file{fs: s, real: rf}
	s.open = append(s.open, f)
	return f, nil
}

func (s *FS) ReadFile(name string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.crashed {
		return nil, ErrCrashed
	}
	return s.real.ReadFile(name)
}

func (s *FS) ReadDir(name string) ([]os.DirEntry, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.crashed {
		return nil, ErrCrashed
	}
	return s.real.ReadDir(name)
}

// metaOp charges one unit for a metadata operation and runs it only if
// the power stayed on: a crash "before" the op is a crash in which the
// op never happened (the budget point just past it covers the case
// where it did).
func (s *FS) metaOp(op func() error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.crashed {
		return ErrCrashed
	}
	if !s.spend(1) {
		s.crashLocked(nil)
		return ErrCrashed
	}
	return op()
}

func (s *FS) Rename(oldname, newname string) error {
	return s.metaOp(func() error { return s.real.Rename(oldname, newname) })
}

func (s *FS) Remove(name string) error {
	return s.metaOp(func() error { return s.real.Remove(name) })
}

func (s *FS) MkdirAll(name string, perm os.FileMode) error {
	return s.metaOp(func() error { return s.real.MkdirAll(name, perm) })
}

func (s *FS) SyncDir(name string) error {
	return s.metaOp(func() error { return s.real.SyncDir(name) })
}

// file buffers writes until Sync, like a page cache the crash can eat.
type file struct {
	fs      *FS
	real    wal.File
	pending []byte
	closed  bool
}

func (f *file) Write(b []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.fs.crashed || f.closed {
		return 0, ErrCrashed
	}
	f.pending = append(f.pending, b...)
	if !f.fs.spend(int64(len(b))) {
		f.fs.crashLocked(f)
		return 0, ErrCrashed
	}
	return len(b), nil
}

func (f *file) Sync() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.fs.crashed || f.closed {
		return ErrCrashed
	}
	if !f.fs.spend(1) {
		// Power cut during the fsync itself: the cache is in whatever
		// state the spill fraction says.
		f.fs.crashLocked(f)
		return ErrCrashed
	}
	if len(f.pending) > 0 {
		if _, err := f.real.Write(f.pending); err != nil {
			return err
		}
		f.pending = f.pending[:0]
	}
	return f.real.Sync()
}

func (f *file) Truncate(size int64) error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.fs.crashed || f.closed {
		return ErrCrashed
	}
	if !f.fs.spend(1) {
		f.fs.crashLocked(f)
		return ErrCrashed
	}
	if len(f.pending) > 0 {
		// The log never truncates a file it has pending writes on; keep
		// the model honest anyway by flushing first.
		if _, err := f.real.Write(f.pending); err != nil {
			return err
		}
		f.pending = f.pending[:0]
	}
	return f.real.Truncate(size)
}

// Close flushes pending to the real file without fsync — on a clean
// shutdown the OS writes its cache back eventually; only a crash loses
// it.
func (f *file) Close() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.closed {
		return nil
	}
	f.closed = true
	if f.fs.crashed {
		return ErrCrashed
	}
	for i, o := range f.fs.open {
		if o == f {
			f.fs.open = append(f.fs.open[:i], f.fs.open[i+1:]...)
			break
		}
	}
	if len(f.pending) > 0 {
		if _, err := f.real.Write(f.pending); err != nil {
			f.real.Close()
			return err
		}
		f.pending = nil
	}
	return f.real.Close()
}
