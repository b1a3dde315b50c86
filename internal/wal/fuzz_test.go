package wal

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzWALReplay throws arbitrary bytes at the segment scanner and the
// replay decoder: whatever is on disk, Open must either repair the tail
// or fail with a typed *CorruptError — never panic, never allocate
// absurdly — and a successful Open must replay a contiguous epoch
// sequence.
func FuzzWALReplay(f *testing.F) {
	addSegmentSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		// The scanner trusts nothing about the file, including that its
		// name matches the first record; epoch 1 keeps valid seeds valid.
		if err := os.WriteFile(filepath.Join(dir, segmentName(1)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(dir, Options{Sync: SyncNever})
		if err != nil {
			var ce *CorruptError
			if !errors.Is(err, ErrWALCorrupt) || !errors.As(err, &ce) {
				t.Fatalf("Open failed with an untyped error: %v", err)
			}
			return
		}
		defer l.Close()
		next := uint64(1)
		if _, err := l.Replay(0, func(r Record) error {
			if r.Epoch != next {
				t.Fatalf("replay epoch %d, want %d", r.Epoch, next)
			}
			next++
			return nil
		}); err != nil && !errors.Is(err, ErrWALCorrupt) {
			t.Fatalf("Replay failed with an untyped error: %v", err)
		}
		// Mutate the file BEHIND the open log — shrink it mid-frame — and
		// scan again: the segment no longer matches the sizes Open cached,
		// which must surface as a typed error (or a clean short replay),
		// never a panic on an out-of-bounds slice.
		path := filepath.Join(dir, segmentName(1))
		if fi, err := os.Stat(path); err == nil && fi.Size() > 0 {
			cut := int64(len(data)) % fi.Size() // data-derived cut point in [0, size)
			if err := os.Truncate(path, cut); err != nil {
				t.Fatal(err)
			}
			if _, err := l.Replay(0, func(Record) error { return nil }); err != nil &&
				!errors.Is(err, ErrWALCorrupt) {
				t.Fatalf("Replay after shrink failed untyped: %v", err)
			}
			if _, err := l.Tail(0, func(Record) error { return nil }); err != nil &&
				!errors.Is(err, ErrWALCorrupt) && !errors.Is(err, ErrTruncated) {
				t.Fatalf("Tail after shrink failed untyped: %v", err)
			}
		}
	})
}

// FuzzFrameReaders holds the log's two frame readers to one frame check:
// the same bytes, read by Open + Replay as segment 1 and by a ReadFrame
// loop as a shipped stream, must yield the same records up to the first
// bad frame. That frame ends the stream with a typed error on both sides,
// or Open repairs it as a torn tail — exactly when the stream ends short
// or corrupt rather than at a clean frame boundary.
func FuzzFrameReaders(f *testing.F) {
	addSegmentSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		var stream []Record
		br := bytes.NewReader(data)
		var streamErr error
		for {
			rec, err := ReadFrame(br)
			if err != nil {
				streamErr = err
				break
			}
			stream = append(stream, rec)
		}
		if streamErr != io.EOF && streamErr != io.ErrUnexpectedEOF && !errors.Is(streamErr, ErrWALCorrupt) {
			t.Fatalf("ReadFrame ended with an untyped error: %v", streamErr)
		}

		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segmentName(1)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(dir, Options{Sync: SyncNever})
		if err != nil {
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("Open failed with an untyped error: %v", err)
			}
			// Open refuses an intact frame whose epoch breaks the sequence
			// 1, 2, …; the stream must not have read such bytes as a clean,
			// contiguous log.
			if streamErr == io.EOF && contiguousFrom1(stream) {
				t.Fatalf("Open refused (%v) what the stream read cleanly as epochs 1..%d", err, len(stream))
			}
			return
		}
		defer l.Close()
		var log []Record
		_, replayErr := l.Replay(0, func(r Record) error {
			log = append(log, r)
			return nil
		})
		if !reflect.DeepEqual(log, stream) {
			t.Fatalf("Open+Replay read %d records, ReadFrame %d (stream ended %v, replay %v)",
				len(log), len(stream), streamErr, replayErr)
		}
		torn := l.Stats().TornBytes > 0
		switch {
		case replayErr != nil:
			// A checksum-valid payload that does not decode: corrupt to both.
			var ce *CorruptError
			if !errors.As(replayErr, &ce) || !errors.Is(streamErr, ErrWALCorrupt) {
				t.Fatalf("replay ended %v, stream %v: want both corrupt", replayErr, streamErr)
			}
		case torn != (streamErr != io.EOF):
			t.Fatalf("Open repaired a torn tail: %v, but the stream ended %v", torn, streamErr)
		}
	})
}

// contiguousFrom1 reports whether recs carry the epochs 1, 2, … in order.
func contiguousFrom1(recs []Record) bool {
	for i, r := range recs {
		if r.Epoch != uint64(i+1) {
			return false
		}
	}
	return true
}

// addSegmentSeeds seeds a fuzzer with real segments of increasing shape,
// plus mangled variants.
func addSegmentSeeds(f *testing.F) {
	seed := func(build func(l *Log)) []byte {
		dir := f.TempDir()
		l, err := Open(dir, Options{Sync: SyncNever})
		if err != nil {
			f.Fatal(err)
		}
		build(l)
		l.Close()
		names, _ := filepath.Glob(filepath.Join(dir, "*"+segmentSuffix))
		if len(names) == 0 {
			return nil
		}
		b, _ := os.ReadFile(names[0])
		return b
	}
	one := seed(func(l *Log) { l.Append(testRecord(1)) })
	three := seed(func(l *Log) { appendAllFuzz(l, 1, 3) })
	f.Add([]byte{})
	f.Add(one)
	f.Add(three)
	f.Add(three[:len(three)-3])           // torn payload
	f.Add(append(three, 9, 9, 9))         // trailing garbage
	f.Add(append([]byte{}, three[8:]...)) // frame header gone
}

func appendAllFuzz(l *Log, from, to uint64) {
	for e := from; e <= to; e++ {
		if err := l.Append(testRecord(e)); err != nil {
			panic(err)
		}
	}
}
