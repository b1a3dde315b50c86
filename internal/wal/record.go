package wal

// One log record per ApplyDelta batch. The payload is self-describing —
// cells carry their kind, so decoding needs no schema — and framed as
//
//	u32 payload length | u32 CRC-32C of payload | payload
//
// payload:
//
//	uvarint epoch          the epoch this delta PRODUCES (parent + 1)
//	uvarint len(deletes)   then each delete id as a uvarint
//	uvarint len(adds)      then each added tuple:
//	    uvarint arity, then per cell:
//	        0x00                     null
//	        0x01 uvarint len, bytes  string
//	        0x02 varint              int64
//	[u8 32, 32 bytes]      optional post-apply auth root (authenticated
//	                       lineages only; absent entirely otherwise)
//
// The frame CRC is what tells a torn tail from a valid record; the fixed
// little-endian length prefix is what lets Open's scan skip a record
// without decoding it. AppendFrame is the one encoder and checkFrame the
// one frame check: Open, Replay/Tail and the shipping stream's ReadFrame
// all verify a frame through it and differ only in what a bad frame means
// to them. Everything inside the payload is varint-coded: a
// typical correction batch is a handful of short strings, and the paper's
// update streams are dominated by single-tuple deltas, so frames are tens
// of bytes.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"unsafe"

	"repro/internal/relation"
)

// Record is one logged master delta batch: the epoch the delta produces
// and the exact adds/deletes handed to ApplyDelta. Replaying records in
// epoch order over the snapshot the log covers reproduces the lineage
// byte-for-byte (master's delta semantics are deterministic).
type Record struct {
	Epoch   uint64
	Adds    []relation.Tuple
	Deletes []int

	// Root, when non-nil, is the 32-byte authenticated-master root the
	// delta PRODUCES — what AuthRoot() returns after applying this record.
	// A nil root encodes as a frame with no root section at all; the codec
	// allows it, but master.Versioned.ApplyRecord — recovery and followers
	// — refuses a rootless record and compares every other root against
	// the one it re-derives.
	Root []byte
}

const (
	cellNull   = 0x00
	cellString = 0x01
	cellInt    = 0x02

	frameHeaderSize = 8
	rootSize        = 32
	// maxRecordBytes bounds one frame's payload: a length prefix beyond
	// it is treated as corruption (or a torn tail), never as an
	// allocation request.
	maxRecordBytes = 1 << 28
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// AppendFrame appends r as one frame (u32 length | u32 CRC-32C | payload)
// to buf and returns it. It is the one encoder: Log.Append writes its
// output to the segments, and the leader's GET /v1/wal re-encodes each
// record Tail delivers with it, so the shipped stream and the segments
// share one framing, read back by ReadFrame and the log's scanners alike.
func AppendFrame(buf []byte, r Record) ([]byte, error) {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0) // frame header, patched below
	buf = binary.AppendUvarint(buf, r.Epoch)
	buf = binary.AppendUvarint(buf, uint64(len(r.Deletes)))
	for _, id := range r.Deletes {
		if id < 0 {
			return nil, fmt.Errorf("wal: record: negative delete id %d", id)
		}
		buf = binary.AppendUvarint(buf, uint64(id))
	}
	buf = binary.AppendUvarint(buf, uint64(len(r.Adds)))
	for _, t := range r.Adds {
		buf = binary.AppendUvarint(buf, uint64(len(t)))
		for _, v := range t {
			var err error
			if buf, err = AppendCell(buf, v); err != nil {
				return nil, fmt.Errorf("wal: record: %w", err)
			}
		}
	}
	if len(r.Root) != 0 {
		if len(r.Root) != rootSize {
			return nil, fmt.Errorf("wal: record: root is %d bytes, want %d", len(r.Root), rootSize)
		}
		buf = append(buf, rootSize)
		buf = append(buf, r.Root...)
	}
	payload := buf[start+frameHeaderSize:]
	if len(payload) > maxRecordBytes {
		return nil, fmt.Errorf("wal: record: payload %d bytes exceeds limit %d", len(payload), maxRecordBytes)
	}
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.Checksum(payload, crcTable))
	return buf, nil
}

// AppendCell appends one value in the log's cell encoding (kind byte, then
// the payload the kind implies — see the file comment). It is the one
// binary form of a relation.Value in this tree: session tokens
// (internal/monitor) carry their tuples in it too, and master arena images
// (internal/master) their symbol tables.
func AppendCell(buf []byte, v relation.Value) ([]byte, error) {
	switch v.Kind() {
	case relation.KindNull:
		return append(buf, cellNull), nil
	case relation.KindString:
		buf = append(buf, cellString)
		buf = binary.AppendUvarint(buf, uint64(len(v.Str())))
		return append(buf, v.Str()...), nil
	case relation.KindInt:
		buf = append(buf, cellInt)
		return binary.AppendVarint(buf, v.Int64()), nil
	default:
		return nil, fmt.Errorf("unknown value kind %v", v.Kind())
	}
}

// CellSize is the length of v's cell as AppendCell writes it.
func CellSize(v relation.Value) int {
	var b [binary.MaxVarintLen64]byte
	switch v.Kind() {
	case relation.KindString:
		return 1 + binary.PutUvarint(b[:], uint64(len(v.Str()))) + len(v.Str())
	case relation.KindInt:
		return 1 + binary.PutVarint(b[:], v.Int64())
	default:
		return 1
	}
}

// frameError is why the bytes at a frame boundary are not one intact
// frame. short marks bytes that end before the frame does — what a crash
// mid-write leaves, or a stream that broke — as opposed to a frame whose
// length or checksum is wrong.
type frameError struct {
	msg   string
	short bool
}

func (e *frameError) Error() string { return e.msg }

// checkFrame is the one frame check, run by Open's scan, by Replay and
// Tail, and by ReadFrame: a whole header, a length within maxRecordBytes,
// the whole payload, and its CRC-32C. It returns the payload of the frame
// b starts with, or why b does not start with an intact one; each caller
// turns that into its own outcome.
func checkFrame(b []byte) ([]byte, *frameError) {
	if len(b) < frameHeaderSize {
		return nil, &frameError{fmt.Sprintf("%d trailing bytes, frame header needs %d", len(b), frameHeaderSize), true}
	}
	plen := int64(binary.LittleEndian.Uint32(b))
	if plen > maxRecordBytes {
		return nil, &frameError{fmt.Sprintf("frame length %d exceeds limit %d", plen, maxRecordBytes), false}
	}
	if rem := int64(len(b)) - frameHeaderSize; rem < plen {
		return nil, &frameError{fmt.Sprintf("frame needs %d payload bytes, %d remain", plen, rem), true}
	}
	payload := b[frameHeaderSize : frameHeaderSize+plen]
	if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(b[4:]) {
		return nil, &frameError{"frame checksum mismatch", false}
	}
	return payload, nil
}

// ReadFrame reads and verifies one frame from r (see AppendFrame). It
// returns io.EOF at a clean frame boundary, io.ErrUnexpectedEOF when the
// stream breaks mid-frame (reconnect and resume), and an error matching
// ErrWALCorrupt when a complete frame fails its checksum or its
// checksum-valid payload does not decode.
func ReadFrame(r io.Reader) (Record, error) {
	frame := make([]byte, frameHeaderSize)
	if _, err := io.ReadFull(r, frame); err != nil {
		return Record{}, err
	}
	payload, ferr := checkFrame(frame)
	if ferr != nil && ferr.short {
		// The header is whole and its length in bounds: read the payload it
		// announces. The buffer grows with the bytes that arrive, so a
		// length the stream does not back costs no allocation of that size.
		plen := int64(binary.LittleEndian.Uint32(frame))
		buf := bytes.NewBuffer(frame)
		n, err := buf.ReadFrom(io.LimitReader(r, plen))
		if err == nil && n < plen {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return Record{}, err
		}
		payload, ferr = checkFrame(buf.Bytes())
	}
	if ferr != nil {
		return Record{}, fmt.Errorf("wal: stream %v: %w", ferr, ErrWALCorrupt)
	}
	rec, err := decodePayload(payload)
	if err != nil {
		return Record{}, fmt.Errorf("wal: stream frame does not decode (%v): %w", err, ErrWALCorrupt)
	}
	return rec, nil
}

// decodePayload decodes one CRC-verified payload. Failures here mean the
// bytes on disk are exactly what some writer produced yet do not parse —
// an encoder/decoder version skew or a checksum collision — so the caller
// reports them as corruption, never as a torn tail.
func decodePayload(b []byte) (Record, error) {
	d := Decoder{b: b}
	var r Record
	r.Epoch = d.Uvarint("epoch")
	nDel := d.Length("delete count")
	if nDel > 0 {
		r.Deletes = make([]int, nDel)
		for i := range r.Deletes {
			id := d.Uvarint("delete id")
			if id > math.MaxInt32 {
				d.Fail("delete id %d exceeds int32", id)
			}
			r.Deletes[i] = int(id)
		}
	}
	nAdd := d.Length("add count")
	if nAdd > 0 {
		r.Adds = make([]relation.Tuple, nAdd)
		for i := range r.Adds {
			arity := d.Length("arity")
			t := make(relation.Tuple, arity)
			for c := range t {
				t[c] = d.Cell()
			}
			r.Adds[i] = t
		}
	}
	if d.err == nil && d.Remaining() > 0 {
		// Optional trailing section: the auth root. A payload that ends at
		// the adds is an unauthenticated record — Root stays nil.
		if n := d.U8("root length"); int(n) != rootSize {
			d.Fail("root length %d, want %d", n, rootSize)
		}
		r.Root = append([]byte(nil), d.take(rootSize, "root bytes")...)
	}
	return r, d.Finish("record")
}

// Decoder is a sticky-error cursor over one varint-framed payload (the
// areader idiom of the arena loader, sized down to varint framing): after
// the first failure every read returns a zero value and Err keeps the
// first error, so a decode routine checks once at the end. Record payloads,
// session tokens (internal/monitor) and the symbol tables of master arena
// images (internal/master) are all read through it.
type Decoder struct {
	b   []byte
	off int
	err error
	str string // ShareStrings, AliasStrings: the payload as one string, cells slice it
}

// NewDecoder returns a cursor at the start of b. The decoder reads b in
// place and never retains it past the values it returns: strings are
// copied out, unless AliasStrings says otherwise.
func NewDecoder(b []byte) Decoder { return Decoder{b: b} }

// ShareStrings makes every string cell decoded from here on a slice of
// one string copy of the payload, instead of a copy of its own: one
// allocation for the lot, at the price that any surviving cell keeps the
// whole payload reachable. Right for a small payload decoded into values
// that live and die together — a session token; wrong for a log record
// whose tuples join the master for good.
func (d *Decoder) ShareStrings() { d.str = string(d.b) }

// AliasStrings makes every string cell decoded from here on a view of the
// payload bytes themselves, with no copy at all: the caller must never write
// the payload while a decoded value lives. Right for a read-only image that
// outlives its values — a master arena, whose symbols alias its bytes.
func (d *Decoder) AliasStrings() { d.str = unsafe.String(unsafe.SliceData(d.b), len(d.b)) }

// Err returns the first failure, nil while every read has succeeded.
func (d *Decoder) Err() error { return d.err }

// Remaining is the number of bytes not yet consumed.
func (d *Decoder) Remaining() int { return len(d.b) - d.off }

// Finish returns the first failure, or an error when bytes remain after
// what was decoded: a payload is consumed exactly.
func (d *Decoder) Finish(what string) error {
	if d.err == nil && d.off != len(d.b) {
		d.Fail("%d trailing bytes after %s", len(d.b)-d.off, what)
	}
	return d.err
}

// Fail records a decode failure at the current offset unless one is
// recorded already.
func (d *Decoder) Fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("payload offset %d: %s", d.off, fmt.Sprintf(format, args...))
	}
}

// take consumes the next n bytes and returns them (a view into the
// payload), or nil after a failure.
func (d *Decoder) take(n int, what string) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > len(d.b)-d.off {
		d.Fail("truncated %s: need %d bytes, %d remain", what, n, len(d.b)-d.off)
		return nil
	}
	p := d.b[d.off : d.off+n]
	d.off += n
	return p
}

// U8 consumes one byte.
func (d *Decoder) U8(what string) uint8 {
	if p := d.take(1, what); p != nil {
		return p[0]
	}
	return 0
}

// U32 consumes one little-endian uint32.
func (d *Decoder) U32(what string) uint32 {
	if p := d.take(4, what); p != nil {
		return binary.LittleEndian.Uint32(p)
	}
	return 0
}

// Uvarint consumes one unsigned varint.
func (d *Decoder) Uvarint(what string) uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.Fail("bad uvarint %s", what)
		return 0
	}
	d.off += n
	return v
}

// varint consumes one signed (zig-zag) varint.
func (d *Decoder) varint(what string) int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.Fail("bad varint %s", what)
		return 0
	}
	d.off += n
	return v
}

// Length reads a uvarint that sizes an allocation, bounding it by the
// payload bytes that remain: every element costs at least one byte, so a
// count beyond the remainder is corruption, not a big allocation.
func (d *Decoder) Length(what string) int {
	v := d.Uvarint(what)
	if d.err != nil {
		return 0
	}
	if v > uint64(len(d.b)-d.off) {
		d.Fail("%s %d exceeds remaining %d bytes", what, v, len(d.b)-d.off)
		return 0
	}
	return int(v)
}

// Cell consumes one value in the encoding AppendCell writes.
func (d *Decoder) Cell() relation.Value {
	switch kind := d.U8("cell kind"); kind {
	case cellNull:
		return relation.Null
	case cellString:
		p := d.take(d.Length("string length"), "string bytes")
		if d.str != "" {
			return relation.String(d.str[d.off-len(p) : d.off])
		}
		return relation.String(string(p))
	case cellInt:
		return relation.Int(d.varint("int cell"))
	default:
		d.Fail("unknown cell kind 0x%02x", kind)
		return relation.Null
	}
}
