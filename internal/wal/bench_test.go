package wal

import "testing"

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
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Epoch = uint64(i + 1)
		if err := l.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
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
