package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"reflect"
	"testing"
)

// rootedRecord is testRecord plus a deterministic 32-byte root.
func rootedRecord(epoch uint64) Record {
	r := testRecord(epoch)
	root := make([]byte, rootSize)
	for i := range root {
		root[i] = byte(epoch) + byte(i)
	}
	r.Root = root
	return r
}

func TestRecordRootRoundTrip(t *testing.T) {
	for epoch := uint64(1); epoch <= 20; epoch++ {
		want := rootedRecord(epoch)
		frame, err := AppendFrame(nil, want)
		if err != nil {
			t.Fatalf("epoch %d: encode: %v", epoch, err)
		}
		got, err := ReadFrame(bytes.NewReader(frame))
		if err != nil {
			t.Fatalf("epoch %d: decode: %v", epoch, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("epoch %d round-trip mismatch:\n got %+v\nwant %+v", epoch, got, want)
		}
	}
}

// TestRecordUnauthenticatedDecodesNilRoot: an unauthenticated record's
// frame carries no root section — decoding one yields Root nil.
func TestRecordUnauthenticatedDecodesNilRoot(t *testing.T) {
	unauth := testRecord(7)
	plain, err := AppendFrame(nil, unauth)
	if err != nil {
		t.Fatal(err)
	}
	rooted, err := AppendFrame(nil, rootedRecord(7))
	if err != nil {
		t.Fatal(err)
	}
	// The root section is exactly one length byte plus the root: nothing
	// else about the encoding moved.
	if len(rooted)-len(plain) != 1+rootSize {
		t.Fatalf("root section is %d bytes, want %d", len(rooted)-len(plain), 1+rootSize)
	}
	got, err := ReadFrame(bytes.NewReader(plain))
	if err != nil {
		t.Fatal(err)
	}
	if got.Root != nil {
		t.Fatalf("unauthenticated frame decoded with Root %x", got.Root)
	}
	if !reflect.DeepEqual(got, unauth) {
		t.Fatalf("unauthenticated round-trip mismatch:\n got %+v\nwant %+v", got, unauth)
	}
}

func TestRecordRootEncodeRejectsBadLength(t *testing.T) {
	r := testRecord(3)
	r.Root = make([]byte, 16)
	if _, err := AppendFrame(nil, r); err == nil {
		t.Fatal("16-byte root encoded without error")
	}
}

// TestRecordRootTruncatedIsCorrupt: a checksum-valid payload whose root
// section is cut short is corruption, not an unauthenticated record.
func TestRecordRootTruncatedIsCorrupt(t *testing.T) {
	frame, err := AppendFrame(nil, rootedRecord(5))
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{1, rootSize / 2, rootSize} {
		payload := frame[frameHeaderSize : len(frame)-cut]
		bad := make([]byte, frameHeaderSize+len(payload))
		binary.LittleEndian.PutUint32(bad, uint32(len(payload)))
		binary.LittleEndian.PutUint32(bad[4:], crc32.Checksum(payload, crcTable))
		copy(bad[frameHeaderSize:], payload)
		if _, err := ReadFrame(bytes.NewReader(bad)); !errors.Is(err, ErrWALCorrupt) {
			t.Fatalf("cut %d: got %v, want ErrWALCorrupt", cut, err)
		}
	}
}
