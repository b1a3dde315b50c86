package master

// This file implements the save side of the master arena: a single flat,
// versioned, offset-based binary image of one Data snapshot, written once
// and loaded by page-in (arena_load.go) instead of a NewForRules rebuild.
// The format is little-endian throughout, every section starts 8-byte
// aligned, and all variable-size structures are reached through the
// header's offset table — never by scanning — so a loader maps the file and
// views the rows and tables in place. Each section holds either the bytes
// the snapshot keeps in memory or nothing: what a load can derive from the
// rows is not stored.
//
// Layout (see DESIGN.md, "Arena format"):
//
//	header   108 bytes: magic "CFXARENA", version, endian marker,
//	         epoch, |Dm|, shard/arity/symbol/index/rule counts, file
//	         size, and the 6 section offsets
//	schema   master schema name + typed attribute list (load-time
//	         validation against Σ's master schema)
//	symbols  the snapshot's interning table in id order (the stable-id
//	         contract with relation.Symbols.Export): as many values as the
//	         header's symbol count, each in the WAL's cell encoding
//	         (wal.AppendCell)
//	rows     the id rows as the snapshot holds them: |Dm| × arity uint32
//	         value ids, row-major
//	indexes  per index of Σ's plan, in its order: its Xm list, then
//	         per shard its frozen table
//	         (table.go): slot count, key count, id count, the slot array,
//	         the id array (8-byte ids). A key sits in the shard keyShard
//	         routes it to (shard.go)
//	rules    per rule of Σ, in Σ order: an FNV-1a signature of its
//	         rendering. Its pattern-support count is derived at load.
//	auth     a presence flag plus the snapshot's 32-byte sparse-Merkle
//	         root (authtree); with the flag set the tree is recomputed
//	         and verified against the stored root at load time.
//	trailer  the CRC-32C (Castagnoli, as in the WAL's frames) of every
//	         byte before it, so a flipped byte anywhere — the tuple
//	         payload of an unauthenticated lineage included — fails the
//	         load instead of decoding into another valid master.
//
// SaveArena writes format 7, and the loader (arena_load.go) answers any
// other version with a typed *SnapshotError. Saving is deterministic: tables
// are canonical, symbols go in id order — the same snapshot always produces
// the same bytes.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/relation"
	"repro/internal/rule"
	"repro/internal/wal"
)

const (
	arenaMagic       = "CFXARENA"
	arenaVersion     = 7
	arenaEndianMark  = 0x01020304
	arenaHeaderSize  = hdrSections + 8*numSections
	arenaTrailerSize = 4 // u32 CRC-32C
)

// arenaCRC is the trailer's table: Castagnoli, hardware-accelerated where
// the platform has it.
var arenaCRC = crc32.MakeTable(crc32.Castagnoli)

// Header field offsets. The offset table holds the absolute position of
// each section, in file order.
const (
	hdrMagic    = 0  // 8 bytes
	hdrVersion  = 8  // u32
	hdrEndian   = 12 // u32
	hdrEpoch    = 16 // u64
	hdrNTuples  = 24 // u64
	hdrNShards  = 32 // u32
	hdrArity    = 36 // u32
	hdrNSyms    = 40 // u32
	hdrNIndexes = 44 // u32
	hdrNRules   = 48 // u32
	hdrFileSize = 52 // u64
	hdrSections = 60 // numSections × u64
)

// Section indexes into the header offset table.
const (
	secSchema = iota
	secSymbols
	secRows
	secIndexes
	secRules
	secAuth
	numSections
)

// ruleSig fingerprints a rule by its canonical rendering, binding the
// image's indexes to the rules they were built for. Load refuses a
// snapshot whose rule list does not match Σ's, signature by signature.
func ruleSig(ru *rule.Rule) uint64 {
	acc := relation.HashSeed()
	s := ru.String()
	for i := 0; i < len(s); i++ {
		acc ^= uint64(s[i])
		acc *= 1099511628211
	}
	return acc
}

// arenaWriter emits the image front to back. The header, written first,
// needs the file size and every section's offset, so the body is emitted
// twice: a sizing pass (w == nil) that only advances off and records where
// each section starts, then the writing pass through one buffered writer.
// The image is never assembled in memory.
type arenaWriter struct {
	w       *bufio.Writer // nil during the sizing pass
	off     int64
	secs    [numSections]int64
	err     error // first write error; later writes are skipped
	scratch [8]byte
	cellBuf []byte // one symbol's cell encoding
}

func (a *arenaWriter) bytes(p []byte) {
	a.off += int64(len(p))
	if a.w != nil && a.err == nil {
		_, a.err = a.w.Write(p)
	}
}

// str writes s's bytes without copying them out of the string first.
func (a *arenaWriter) str(s string) {
	a.off += int64(len(s))
	if a.w != nil && a.err == nil {
		_, a.err = a.w.WriteString(s)
	}
}

func (a *arenaWriter) u8(v uint8) {
	a.scratch[0] = v
	a.bytes(a.scratch[:1])
}

func (a *arenaWriter) u32(v uint32) {
	binary.LittleEndian.PutUint32(a.scratch[:4], v)
	a.bytes(a.scratch[:4])
}

func (a *arenaWriter) u64(v uint64) {
	binary.LittleEndian.PutUint64(a.scratch[:8], v)
	a.bytes(a.scratch[:8])
}

// cell writes v in the WAL's cell encoding.
func (a *arenaWriter) cell(v relation.Value) {
	var err error
	if a.cellBuf, err = wal.AppendCell(a.cellBuf[:0], v); err != nil && a.err == nil {
		a.err = err
	}
	a.bytes(a.cellBuf)
}

// writeInts writes an array little-endian at width 4 or 8 bytes an element,
// a buffer-full at a time.
func writeInts[T int | uint32 | uint64](a *arenaWriter, xs []T, width int) {
	a.off += int64(width) * int64(len(xs))
	for a.w != nil && a.err == nil && len(xs) > 0 {
		buf := a.w.AvailableBuffer()
		if cap(buf) < width {
			a.err = a.w.Flush()
			continue
		}
		n := min(len(xs), cap(buf)/width)
		for _, x := range xs[:n] {
			if width == 8 {
				buf = binary.LittleEndian.AppendUint64(buf, uint64(x))
			} else {
				buf = binary.LittleEndian.AppendUint32(buf, uint32(x))
			}
		}
		_, a.err = a.w.Write(buf)
		xs = xs[n:]
	}
}

func (a *arenaWriter) align8() {
	var zero [8]byte
	a.bytes(zero[:(8-a.off%8)%8])
}

// section 8-aligns the image and records the upcoming section's offset.
func (a *arenaWriter) section(sec int) {
	a.align8()
	a.secs[sec] = a.off
}

// SaveArena writes the snapshot as an arena image loadable with LoadArena.
// sigma must be a rule set whose plan has the snapshot's indexes — the one
// it was built for (NewForRules); its rules' signatures go into the image,
// and LoadArena will only accept the image against an equivalent Σ. The
// snapshot may be anywhere in a delta chain: a shard with an empty overlay
// is written as the table it holds, one with an overlay as the compacted
// table of the merged view. The image streams to w through one buffer,
// hashed on its way out for the trailer; beyond it the save holds one
// shard's compacted table at a time.
func (d *Data) SaveArena(w io.Writer, sigma *rule.Set) error {
	if !sigma.MasterSchema().Equal(d.schema) {
		return fmt.Errorf("master: save arena: snapshot schema %s does not match Σ's master schema %s",
			d.schema.Name(), sigma.MasterSchema().Name())
	}
	if !slices.EqualFunc(newPlan(sigma).indexes, d.plan.indexes, func(a, b indexPlan) bool { return slices.Equal(a.xm, b.xm) }) {
		return fmt.Errorf("master: save arena: the snapshot's indexes are not Σ's plan's (build with NewForRules for the same Σ)")
	}

	var sized arenaWriter
	sized.off = arenaHeaderSize
	d.writeArenaBody(&sized, sigma)

	var hdr [arenaHeaderSize]byte
	copy(hdr[hdrMagic:], arenaMagic)
	binary.LittleEndian.PutUint32(hdr[hdrVersion:], arenaVersion)
	binary.LittleEndian.PutUint32(hdr[hdrEndian:], arenaEndianMark)
	binary.LittleEndian.PutUint64(hdr[hdrEpoch:], d.epoch)
	binary.LittleEndian.PutUint64(hdr[hdrNTuples:], uint64(d.rows.Len()))
	binary.LittleEndian.PutUint32(hdr[hdrNShards:], uint32(d.nshards))
	binary.LittleEndian.PutUint32(hdr[hdrArity:], uint32(d.schema.Arity()))
	binary.LittleEndian.PutUint32(hdr[hdrNSyms:], uint32(d.syms.Len()))
	binary.LittleEndian.PutUint32(hdr[hdrNIndexes:], uint32(len(d.plan.indexes)))
	binary.LittleEndian.PutUint32(hdr[hdrNRules:], uint32(sigma.Len()))
	binary.LittleEndian.PutUint64(hdr[hdrFileSize:], uint64(sized.off+arenaTrailerSize))
	for sec, off := range sized.secs {
		binary.LittleEndian.PutUint64(hdr[hdrSections+8*sec:], uint64(off))
	}

	// The hash sits below the buffer, so it sees exactly the bytes w does.
	crc := crc32.New(arenaCRC)
	out := arenaWriter{w: bufio.NewWriterSize(io.MultiWriter(w, crc), 1<<20)}
	out.bytes(hdr[:])
	d.writeArenaBody(&out, sigma)
	if out.err == nil {
		out.err = out.w.Flush()
	}
	if out.err != nil {
		return fmt.Errorf("master: save arena: %w", out.err)
	}
	if out.off != sized.off || out.secs != sized.secs {
		// The header is already out; a mismatch would be an image that lies
		// about itself, so it gets no trailer and is not reported as saved.
		return fmt.Errorf("master: save arena: wrote %d bytes where the sizing pass counted %d", out.off, sized.off)
	}
	if _, err := w.Write(binary.LittleEndian.AppendUint32(nil, crc.Sum32())); err != nil {
		return fmt.Errorf("master: save arena: %w", err)
	}
	return nil
}

// writeArenaBody emits the six sections after the header.
func (d *Data) writeArenaBody(b *arenaWriter, sigma *rule.Set) {
	schema := d.schema

	// Schema: name, then each attribute's name and type.
	b.section(secSchema)
	b.u32(uint32(len(schema.Name())))
	b.str(schema.Name())
	for i := 0; i < schema.Arity(); i++ {
		attr := schema.Attr(i)
		b.u32(uint32(len(attr.Name)))
		b.str(attr.Name)
		b.u8(uint8(attr.Type))
	}

	// Symbols: the interning table in id order, one cell per value.
	b.section(secSymbols)
	for id := range uint32(d.syms.Len()) {
		b.cell(d.syms.Value(id))
	}

	// Rows: the id rows as the snapshot holds them, row-major.
	b.section(secRows)
	for _, row := range d.rows.All() {
		writeInts(b, row, 4)
	}

	// Indexes: per index of the plan, the Xm list then one table per shard.
	b.section(secIndexes)
	for i := range d.plan.indexes {
		idx := d.indexAt(i)
		b.u32(uint32(len(idx.xm)))
		for _, p := range idx.xm {
			b.u32(uint32(p))
		}
		b.align8()
		for s := range idx.shards {
			writeTable(b, &idx.shards[s].layered)
		}
	}

	// Rules: per rule of Σ in Σ order, its signature.
	b.section(secRules)
	for _, ru := range sigma.Rules() {
		b.u64(ruleSig(ru))
	}

	// Auth: presence flag + the snapshot's sparse-Merkle root. Saved even
	// when unauthenticated (flag 0, zero root) so the section table is
	// uniform; the loader rebuilds and verifies the tree only when the
	// flag is set.
	b.section(secAuth)
	root, ok := d.AuthRoot()
	if ok {
		b.u64(1) // the flag and four bytes of padding
	} else {
		b.u64(0)
	}
	b.bytes(root[:])
}

// writeTable writes one shard's canonical table — the one it holds under an
// empty overlay, the compacted merged view otherwise: header (nslots,
// nkeys, nids), slot array, id array at the image's id width. The sizing
// pass counts the merged view instead of building it.
func writeTable(b *arenaWriter, l *layered) {
	if b.w == nil {
		nkeys, nids := l.mergedSize()
		b.off += 24 + 16*int64(tableSlots(nkeys)) + idWidth*int64(nids)
		return
	}
	t := l.compact()
	b.u64(uint64(len(t.slots) / 2))
	b.u64(uint64(t.nkeys))
	b.u64(uint64(len(t.ids)))
	writeInts(b, t.slots, 8)
	writeInts(b, t.ids, idWidth)
}

// SaveArenaFile writes the arena to path atomically AND durably (see
// saveArenaAtomic).
func (d *Data) SaveArenaFile(path string, sigma *rule.Set) error {
	return d.saveArenaAtomic(wal.OS, path, sigma)
}

// saveArenaAtomic is the one spelling of a durable arena write, shared by
// SaveArenaFile and the lineage's checkpoints: stream the image to
// path+".tmp", fsync it, rename it over path, fsync the directory. A crash
// at any point leaves either the old file or the complete new one — never
// a truncated snapshot, and never a rename that a power cut can undo. An
// error means no new image became durable.
func (d *Data) saveArenaAtomic(fsys wal.FS, path string, sigma *rule.Set) error {
	tmp := path + ".tmp"
	f, err := fsys.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("master: save arena: %w", err)
	}
	err = d.SaveArena(f, sigma)
	if err == nil {
		if err = f.Sync(); err != nil {
			err = fmt.Errorf("master: save arena: %w", err)
		}
	}
	if cerr := f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("master: save arena: %w", cerr)
	}
	if err == nil {
		if err = fsys.Rename(tmp, path); err != nil {
			err = fmt.Errorf("master: save arena: %w", err)
		}
	}
	if err != nil {
		_ = fsys.Remove(tmp) // best effort: the next save truncates it anyway
		return err
	}
	if err := fsys.SyncDir(filepath.Dir(path)); err != nil {
		return fmt.Errorf("master: save arena: %w", err)
	}
	return nil
}
