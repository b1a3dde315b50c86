package master

// This file implements the save side of the columnar master arena: a
// single flat, versioned, offset-based binary image of one Data snapshot,
// written once and loaded by page-in (arena_load.go) instead of a
// NewForRules rebuild. The format is little-endian throughout, every
// section starts 8-byte aligned, and all variable-size structures are
// reached through the header's offset table — never by scanning — so a
// loader maps the file and views the tables in place.
//
// Layout (see DESIGN.md, "Columnar arena format"):
//
//	header   112 bytes: magic "CFXARENA", version, endian marker,
//	         epoch, |Dm|, shard/arity/symbol/index/rule counts, file
//	         size, and the 6 section offsets
//	schema   master schema name + typed attribute list (load-time
//	         validation against Σ's master schema)
//	symbols  the snapshot's interning table in id order (the stable-id
//	         contract with relation.Symbols.Export): fixed 16-byte records
//	         + a string heap. Every cell of every column is interned, so
//	         the record count equals the header's symbol count; an image
//	         written before cells were ids may carry more — values of
//	         non-indexed columns — which load as ordinary symbols.
//	columns  the id rows, transposed: per-column vectors of n uint32 value
//	         ids (column-major)
//	indexes  per index: its Xm list, then per shard its frozen table
//	         (table.go): slot count, key count, id count, the slot array,
//	         the id array (8-byte ids). A key sits in the shard keyShard
//	         routes it to (shard.go)
//	rules    per rule of Σ, in Σ order: an FNV-1a signature of its
//	         rendering plus its pattern-support bitmap
//	auth     a presence flag plus the snapshot's 32-byte sparse-Merkle
//	         root (authtree); with the flag set the tree is recomputed
//	         and verified against the stored root at load time.
//
// SaveArena writes format 5. Format 4 — every checkpoint written while the
// master kept per-column posting lists beside its indexes — differs by a
// postings section between indexes and rules, with its count and offset in
// the header; the loader takes both (arena_load.go) and answers any other
// version with a typed *SnapshotError. Saving is deterministic: tables are
// canonical, symbols go in id order — the same snapshot always produces the
// same bytes.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/relation"
	"repro/internal/rule"
	"repro/internal/wal"
)

const (
	arenaMagic      = "CFXARENA"
	arenaVersion    = 5
	arenaEndianMark = 0x01020304
	arenaHeaderSize = hdrSections + 8*numSections

	// arenaVersionPostings is the format the loader still takes beside
	// arenaVersion: a header 8 bytes longer, for the postings section's offset.
	arenaVersionPostings = 4
)

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
	hdrNRules   = 52 // u32; the four bytes before it are zero (format 4: the posting-list count)
	hdrFileSize = 56 // u64
	hdrSections = 64 // numSections × u64
)

// Section indexes into the header offset table.
const (
	secSchema = iota
	secSymbols
	secColumns
	secIndexes
	secRules
	secAuth
	numSections

	// secPostings is where a format-4 header's table holds its postings
	// section, every later section one slot on.
	secPostings = secRules
)

// ruleSig fingerprints a rule by its canonical rendering, binding a saved
// pattern bitmap to the rule it was evaluated for. Load refuses a
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

// SaveArena writes the snapshot as a columnar arena image loadable with
// LoadArena. sigma must be the rule set the snapshot was built for
// (NewForRules); its rules' probe plans and pattern bitmaps are frozen
// into the image, and LoadArena will only accept the image against an
// equivalent Σ. The snapshot may be anywhere in a delta chain: a shard
// with an empty overlay is written as the table it holds, one with an
// overlay as the compacted table of the merged view. The image streams to
// w through one buffer; beyond it the save holds one column of ids and one
// shard's compacted table at a time.
func (d *Data) SaveArena(w io.Writer, sigma *rule.Set) error {
	if !sigma.MasterSchema().Equal(d.schema) {
		return fmt.Errorf("master: save arena: snapshot schema %s does not match Σ's master schema %s",
			d.schema.Name(), sigma.MasterSchema().Name())
	}
	for _, ru := range sigma.Rules() {
		if _, ok := d.plans[ru]; !ok {
			return fmt.Errorf("master: save arena: rule %s has no probe plan in this snapshot (build with NewForRules for the same Σ)", ru.Name())
		}
		if _, ok := d.compat[ru]; !ok {
			return fmt.Errorf("master: save arena: rule %s has no compatibility plan in this snapshot", ru.Name())
		}
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
	binary.LittleEndian.PutUint32(hdr[hdrNIndexes:], uint32(len(d.indexes)))
	binary.LittleEndian.PutUint32(hdr[hdrNRules:], uint32(sigma.Len()))
	binary.LittleEndian.PutUint64(hdr[hdrFileSize:], uint64(sized.off))
	for sec, off := range sized.secs {
		binary.LittleEndian.PutUint64(hdr[hdrSections+8*sec:], uint64(off))
	}

	out := arenaWriter{w: bufio.NewWriterSize(w, 1<<20)}
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
		// about itself, so it must not be reported as saved.
		return fmt.Errorf("master: save arena: wrote %d bytes where the sizing pass counted %d", out.off, sized.off)
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

	// Symbols: count, fixed records, string heap — the interning table in
	// id order.
	b.section(secSymbols)
	nsyms := uint32(d.syms.Len())
	b.u32(nsyms)
	b.align8()
	heapLen := 0
	for id := range nsyms {
		v := d.syms.Value(id)
		b.u32(uint32(v.Kind())) // the kind byte and three of padding
		switch v.Kind() {
		case relation.KindString:
			b.u32(uint32(len(v.Str())))
			b.u64(uint64(heapLen))
			heapLen += len(v.Str())
		case relation.KindInt:
			b.u32(0)
			b.u64(uint64(v.Int64()))
		default:
			b.u32(0)
			b.u64(0)
		}
	}
	b.u64(uint64(heapLen))
	for id := range nsyms {
		if v := d.syms.Value(id); v.Kind() == relation.KindString {
			b.str(v.Str())
		}
	}

	// Columns: arity × n uint32 ids, column-major — the rows, one column
	// gathered at a time.
	b.section(secColumns)
	if n := d.rows.Len(); b.w == nil {
		b.off += 4 * int64(n) * int64(schema.Arity())
	} else {
		col := make([]uint32, n)
		for c := 0; c < schema.Arity(); c++ {
			for i, row := range d.rows.All() {
				col[i] = row[c]
			}
			writeInts(b, col, 4)
		}
	}

	// Indexes: per registered index, the Xm list then one table per shard.
	b.section(secIndexes)
	for _, idx := range d.indexes {
		b.u32(uint32(len(idx.xm)))
		for _, p := range idx.xm {
			b.u32(uint32(p))
		}
		b.align8()
		for s := range idx.shards {
			writeTable(b, &idx.shards[s].layered)
		}
	}

	// Rules: per rule of Σ in Σ order, signature + pattern bitmap.
	b.section(secRules)
	for _, ru := range sigma.Rules() {
		cp := d.compat[ru]
		b.u64(ruleSig(ru))
		b.u32(uint32(cp.patCount))
		b.u32(uint32(cp.patBits.Len()))
		for _, w := range cp.patBits.All() {
			b.u64(w)
		}
	}
	b.align8()

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
