package wal

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/relation"
)

// testRecord builds a deterministic record for epoch, with a tuple and
// delete mix seeded by the epoch itself.
func testRecord(epoch uint64) Record {
	rng := rand.New(rand.NewSource(int64(epoch)))
	r := Record{Epoch: epoch}
	for i, n := 0, rng.Intn(3); i < n; i++ {
		r.Deletes = append(r.Deletes, rng.Intn(1000))
	}
	for i, n := 0, 1+rng.Intn(3); i < n; i++ {
		t := relation.Tuple{
			relation.String(fmt.Sprintf("name-%d-%d", epoch, i)),
			relation.Int(rng.Int63n(1 << 40)),
			relation.Null,
			relation.String(strings.Repeat("x", rng.Intn(24))),
		}
		r.Adds = append(r.Adds, t)
	}
	return r
}

func appendAll(t *testing.T, l *Log, from, to uint64) {
	t.Helper()
	for e := from; e <= to; e++ {
		if err := l.Append(testRecord(e)); err != nil {
			t.Fatalf("append epoch %d: %v", e, err)
		}
	}
}

func replayAll(t *testing.T, l *Log, after uint64) []Record {
	t.Helper()
	var recs []Record
	n, err := l.Replay(after, func(r Record) error {
		recs = append(recs, r)
		return nil
	})
	if err != nil {
		t.Fatalf("replay after %d: %v", after, err)
	}
	if n != len(recs) {
		t.Fatalf("replay count %d, callback saw %d", n, len(recs))
	}
	return recs
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, 1, 40)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	st := l2.Stats()
	if st.FirstEpoch != 1 || st.LastEpoch != 40 || st.TornBytes != 0 {
		t.Fatalf("stats after clean reopen: %+v", st)
	}
	recs := replayAll(t, l2, 0)
	if len(recs) != 40 {
		t.Fatalf("replayed %d records, want 40", len(recs))
	}
	for i, got := range recs {
		want := testRecord(uint64(i + 1))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("record %d round-trip mismatch:\n got %+v\nwant %+v", i+1, got, want)
		}
	}
	// Replay from the middle starts exactly at after+1.
	mid := replayAll(t, l2, 25)
	if len(mid) != 15 || mid[0].Epoch != 26 {
		t.Fatalf("partial replay: %d records, first epoch %d", len(mid), mid[0].Epoch)
	}
}

func TestSegmentRollAndReopen(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncNever, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, 1, 60)
	st := l.Stats()
	if st.Segments < 3 {
		t.Fatalf("tiny SegmentBytes produced only %d segments", st.Segments)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Continue appending after a reopen; the lineage must stay seamless.
	l2, err := Open(dir, Options{Sync: SyncNever, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l2, 61, 80)
	recs := replayAll(t, l2, 0)
	if len(recs) != 80 || recs[79].Epoch != 80 {
		t.Fatalf("replay across reopen: %d records, last %d", len(recs), recs[len(recs)-1].Epoch)
	}
	l2.Close()
}

func TestAppendEpochMustExtend(t *testing.T) {
	l, err := Open(t.TempDir(), Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	// First record may start anywhere (e.g. right after a checkpoint).
	if err := l.Append(testRecord(7)); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(testRecord(9)); err == nil {
		t.Fatal("append with an epoch gap succeeded")
	}
	if err := l.Append(testRecord(7)); err == nil {
		t.Fatal("append with a repeated epoch succeeded")
	}
	if err := l.Append(testRecord(8)); err != nil {
		t.Fatalf("valid next epoch rejected: %v", err)
	}
}

// lastSegment returns the path of the newest segment file in dir.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*"+segmentSuffix))
	if err != nil || len(names) == 0 {
		t.Fatalf("no segments in %s (err %v)", dir, err)
	}
	return names[len(names)-1]
}

func TestTornTailTruncated(t *testing.T) {
	for name, mangle := range map[string]func([]byte) []byte{
		"partial header":  func(b []byte) []byte { return append(b, 0x55, 0x66) },
		"partial payload": func(b []byte) []byte { return append(b, 24, 0, 0, 0, 1, 2, 3, 4, 0xAA) },
		"bad checksum": func(b []byte) []byte {
			b[len(b)-1] ^= 0xFF // flip a byte inside the final record's payload
			return b
		},
		"huge length": func(b []byte) []byte {
			return append(b, 0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0)
		},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			l, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			appendAll(t, l, 1, 10)
			l.Close()

			seg := lastSegment(t, dir)
			b, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			clean := int64(len(b))
			if err := os.WriteFile(seg, mangle(b), 0o644); err != nil {
				t.Fatal(err)
			}

			l2, err := Open(dir, Options{})
			if err != nil {
				t.Fatalf("open with torn tail must repair, got %v", err)
			}
			defer l2.Close()
			st := l2.Stats()
			if st.TornBytes == 0 {
				t.Fatal("repair not reported in Stats")
			}
			recs := replayAll(t, l2, 0)
			wantLast := uint64(10)
			if name == "bad checksum" {
				wantLast = 9 // the mangled final record is gone
			}
			if len(recs) == 0 || recs[len(recs)-1].Epoch != wantLast {
				t.Fatalf("replay after repair ends at %d records, want last epoch %d", len(recs), wantLast)
			}
			// The file itself must be cut back to the valid prefix.
			if fi, err := os.Stat(seg); err == nil && name != "bad checksum" && fi.Size() != clean {
				t.Fatalf("segment size %d after repair, want %d", fi.Size(), clean)
			}
			// Appending must continue the repaired lineage.
			if err := l2.Append(testRecord(wantLast + 1)); err != nil {
				t.Fatalf("append after repair: %v", err)
			}
		})
	}
}

func TestTornTailWholeSegmentRemoved(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncNever, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, 1, 30)
	l.Close()

	// Simulate a crash right after the newest segment was created: only
	// a few garbage bytes, no complete record.
	seg := lastSegment(t, dir)
	if err := os.WriteFile(seg, []byte{1, 2, 3}, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{Sync: SyncNever, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if _, err := os.Stat(seg); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("empty torn segment still on disk (stat err %v)", err)
	}
	recs := replayAll(t, l2, 0)
	last := recs[len(recs)-1].Epoch
	// Everything before the destroyed segment survives, and the log
	// accepts the lost epoch again.
	if err := l2.Append(testRecord(last + 1)); err != nil {
		t.Fatalf("append after segment removal: %v", err)
	}
}

func TestCorruptionInsideLogIsTyped(t *testing.T) {
	corruptFirstSegment := func(t *testing.T, dir string, mangle func([]byte) []byte) {
		t.Helper()
		names, _ := filepath.Glob(filepath.Join(dir, "*"+segmentSuffix))
		if len(names) < 2 {
			t.Fatalf("want ≥2 segments, have %d", len(names))
		}
		b, err := os.ReadFile(names[0])
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(names[0], mangle(b), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("bad frame in sealed segment", func(t *testing.T) {
		dir := t.TempDir()
		l, _ := Open(dir, Options{Sync: SyncNever, SegmentBytes: 256})
		appendAll(t, l, 1, 40)
		l.Close()
		corruptFirstSegment(t, dir, func(b []byte) []byte {
			b[len(b)/2] ^= 0xFF
			return b
		})
		_, err := Open(dir, Options{Sync: SyncNever})
		if !errors.Is(err, ErrWALCorrupt) {
			t.Fatalf("want ErrWALCorrupt, got %v", err)
		}
		var ce *CorruptError
		if !errors.As(err, &ce) || ce.Path == "" {
			t.Fatalf("want *CorruptError with path, got %#v", err)
		}
	})

	t.Run("missing middle segment", func(t *testing.T) {
		dir := t.TempDir()
		l, _ := Open(dir, Options{Sync: SyncNever, SegmentBytes: 256})
		appendAll(t, l, 1, 60)
		l.Close()
		names, _ := filepath.Glob(filepath.Join(dir, "*"+segmentSuffix))
		if len(names) < 3 {
			t.Fatalf("want ≥3 segments, have %d", len(names))
		}
		if err := os.Remove(names[1]); err != nil {
			t.Fatal(err)
		}
		_, err := Open(dir, Options{Sync: SyncNever})
		if !errors.Is(err, ErrWALCorrupt) {
			t.Fatalf("want ErrWALCorrupt for epoch gap, got %v", err)
		}
	})

	t.Run("replay gap after checkpoint", func(t *testing.T) {
		dir := t.TempDir()
		l, _ := Open(dir, Options{Sync: SyncNever})
		appendAll(t, l, 10, 20)
		defer l.Close()
		// A checkpoint at epoch 5 would need the log to resume at 6; it
		// resumes at 10 — records 6..9 are missing.
		_, err := l.Replay(5, func(Record) error { return nil })
		if !errors.Is(err, ErrWALCorrupt) {
			t.Fatalf("want ErrWALCorrupt for replay gap, got %v", err)
		}
	})
}

func TestTruncateThrough(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncNever, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, 1, 60)
	before := l.Stats()

	// A checkpoint at epoch 30 retires every segment ending at or before
	// it; records after 30 must all survive.
	if err := l.TruncateThrough(30); err != nil {
		t.Fatal(err)
	}
	after := l.Stats()
	if after.Segments >= before.Segments {
		t.Fatalf("truncate removed nothing: %d → %d segments", before.Segments, after.Segments)
	}
	if after.FirstEpoch > 31 {
		t.Fatalf("truncate removed uncovered records: first epoch now %d", after.FirstEpoch)
	}
	recs := replayAll(t, l, 30)
	if len(recs) != 30 || recs[0].Epoch != 31 || recs[29].Epoch != 60 {
		t.Fatalf("replay after truncate: %d records [%d..%d]", len(recs), recs[0].Epoch, recs[len(recs)-1].Epoch)
	}
	l.Close()

	// The truncated log must reopen cleanly and keep its lineage.
	l2, err := Open(dir, Options{Sync: SyncNever, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	appendAll(t, l2, 61, 70)
	recs = replayAll(t, l2, 30)
	if recs[len(recs)-1].Epoch != 70 {
		t.Fatalf("lineage after truncate+reopen ends at %d", recs[len(recs)-1].Epoch)
	}

	// Truncating everything empties the log; the next append restarts it.
	if err := l2.TruncateThrough(70); err != nil {
		t.Fatal(err)
	}
	st := l2.Stats()
	if st.Segments != 0 || st.FirstEpoch != 0 || st.LastEpoch != 0 {
		t.Fatalf("stats after full truncate: %+v", st)
	}
	if err := l2.Append(testRecord(71)); err != nil {
		t.Fatalf("append into fully truncated log: %v", err)
	}
}

// TestSyncPolicies: each policy acknowledges inside Append, so the
// watermark and the log's end are the same epoch as soon as it returns;
// an fsync of a SyncNever log moves neither.
func TestSyncPolicies(t *testing.T) {
	check := func(t *testing.T, l *Log, p SyncPolicy) {
		t.Helper()
		if epoch, _ := l.Synced(); epoch != 5 {
			t.Fatalf("Synced = %d after 5 appends", epoch)
		}
		if st := l.Stats(); st.LastEpoch != 5 || st.Policy != p.String() {
			t.Fatalf("stats %+v", st)
		}
	}
	t.Run("always", func(t *testing.T) {
		l, err := Open(t.TempDir(), Options{Sync: SyncAlways})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		appendAll(t, l, 1, 5)
		check(t, l, SyncAlways)
	})
	t.Run("manual", func(t *testing.T) {
		l, err := Open(t.TempDir(), Options{Sync: SyncNever})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		appendAll(t, l, 1, 5)
		check(t, l, SyncNever)
		l.mu.Lock()
		err = l.syncLocked()
		l.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		check(t, l, SyncNever)
	})
}

func TestRecordEncodeRejectsBadInput(t *testing.T) {
	if _, err := AppendFrame(nil, Record{Epoch: 1, Deletes: []int{-1}}); err == nil {
		t.Fatal("negative delete id encoded")
	}
}

// TestCellSize: CellSize is the length AppendCell writes, across the
// varint boundaries of a string's length and an int's payload.
func TestCellSize(t *testing.T) {
	vals := []relation.Value{relation.Null, relation.String(""), relation.String("x"),
		relation.String(strings.Repeat("y", 127)), relation.String(strings.Repeat("y", 128)),
		relation.Int(0), relation.Int(-64), relation.Int(64), relation.Int(1 << 40), relation.Int(-1 << 62)}
	for _, v := range vals {
		cell, err := AppendCell(nil, v)
		if err != nil {
			t.Fatal(err)
		}
		if got := CellSize(v); got != len(cell) {
			t.Errorf("CellSize(%v) = %d, AppendCell writes %d bytes", v, got, len(cell))
		}
	}
}
