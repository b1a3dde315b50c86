package wal

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

// benchmarkAppend measures one ApplyDelta-sized record per op under the
// given fsync policy. "always" is bound by the device's fsync latency —
// the price of per-batch durability every durable lineage pays; "off"
// shows what deferred flushing would buy.
func benchmarkAppend(b *testing.B, p SyncPolicy) {
	l, err := Open(b.TempDir(), Options{Sync: p})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	rec := testRecord(1)
	var buf []byte
	if buf, err = AppendFrame(nil, rec); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(buf)))
	// Set-up stays outside the timed loop: the first append creates the
	// segment file and sizes the encode buffer.
	if err := l.Append(rec); err != nil {
		b.Fatal(err)
	}
	parkThreads()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Epoch = uint64(i + 2)
		if err := l.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
}

// parkThreads leaves the runtime more idle OS threads than it has Ps. The
// runtime starts a thread when it hands a P on and finds none idle — after
// a syscall blocks, or when the world restarts after the stop that each
// b.ResetTimer makes to read memory statistics — and starting one allocates
// ~5 KB. Once in a run of 200 appends that read as 26 B/op of an append
// that allocates nothing. Each goroutine here holds a thread of its own
// while it sleeps, so the runtime starts threads for the Ps meanwhile, and
// all of them go idle when the goroutines unlock and return.
func parkThreads() {
	var wg sync.WaitGroup
	for range runtime.GOMAXPROCS(0) + 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			time.Sleep(time.Millisecond)
		}()
	}
	wg.Wait()
}

func BenchmarkWALAppendAlways(b *testing.B) { benchmarkAppend(b, SyncAlways) }
func BenchmarkWALAppendOff(b *testing.B)    { benchmarkAppend(b, SyncNever) }

// BenchmarkWALTail measures shipping throughput: one Tail pass over a
// 10k-record log on an open, live Log — the read a follower repeats as
// the leader appends. records/sec here bounds how fast a follower can
// drain a backlog.
func BenchmarkWALTail(b *testing.B) {
	l, err := Open(b.TempDir(), Options{Sync: SyncNever})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	const recs = 10_000
	var bytes int64
	for e := uint64(1); e <= recs; e++ {
		r := testRecord(e)
		buf, _ := AppendFrame(nil, r)
		bytes += int64(len(buf))
		if err := l.Append(r); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(bytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		if _, err := l.Tail(0, func(Record) error { n++; return nil }); err != nil {
			b.Fatal(err)
		}
		if n != recs {
			b.Fatalf("tailed %d", n)
		}
	}
}

// BenchmarkWALReplay measures decoding throughput of a 10k-record log —
// the WAL half of recovery cost (the arena load is benchmarked in
// internal/master).
func BenchmarkWALReplay(b *testing.B) {
	dir := b.TempDir()
	l, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		b.Fatal(err)
	}
	for e := uint64(1); e <= 10_000; e++ {
		if err := l.Append(testRecord(e)); err != nil {
			b.Fatal(err)
		}
	}
	l.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, err := Open(dir, Options{Sync: SyncNever})
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		if _, err := l.Replay(0, func(Record) error { n++; return nil }); err != nil {
			b.Fatal(err)
		}
		if n != 10_000 {
			b.Fatalf("replayed %d", n)
		}
		l.Close()
	}
}
