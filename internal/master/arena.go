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
//	header   120 bytes: magic "CFXARENA", version, endian marker,
//	         epoch, |Dm|, shard/arity/symbol/structure counts, file
//	         size, and the 7 section offsets
//	schema   master schema name + typed attribute list (load-time
//	         validation against Σ's master schema)
//	symbols  every distinct cell value: fixed 16-byte records + a string
//	         heap. The first nsyms records are the snapshot's interning
//	         table in id order (the stable-id contract with
//	         relation.Symbols.Export); the rest are extension values —
//	         cells of non-indexed columns, present only so tuples can be
//	         materialized, never entered into the loaded symbol table.
//	columns  per-column vectors of n uint32 value ids (column-major)
//	indexes  per index: its Xm list, then per shard its frozen table
//	         (table.go): slot count, key count, id count, the slot array,
//	         the id array (8-byte ids), padded back to 8. A key sits in the
//	         shard keyShard routes it to (shard.go)
//	postings per posting list: its column, then per-shard tables of the
//	         same shape with 4-byte ids, routed by value id
//	rules    per rule of Σ, in Σ order: an FNV-1a signature of its
//	         rendering plus its pattern-support bitmap
//	auth     a presence flag plus the snapshot's 32-byte sparse-Merkle
//	         root (authtree); with the flag set the tree is recomputed
//	         and verified against the stored root at load time.
//
// There is one format version; the loader answers any other with a typed
// *SnapshotError. Saving is deterministic: tables are canonical, symbols
// go in id order, extension values in row-major cell-scan order — the same
// snapshot always produces the same bytes.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"repro/internal/relation"
	"repro/internal/rule"
)

const (
	arenaMagic      = "CFXARENA"
	arenaVersion    = 4
	arenaEndianMark = 0x01020304
	arenaHeaderSize = 120
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
	hdrNPosts   = 48 // u32
	hdrNRules   = 52 // u32
	hdrFileSize = 56 // u64
	hdrSections = 64 // 7 × u64
)

// Section indexes into the header offset table.
const (
	secSchema = iota
	secSymbols
	secColumns
	secIndexes
	secPostings
	secRules
	secAuth
	numSections
)

var sectionName = [numSections]string{
	"schema", "symbols", "columns", "indexes", "postings", "rules", "auth",
}

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

// arenaBuilder accumulates the image in memory (the header needs the
// final size and section offsets, so the image is assembled before the
// single Write).
type arenaBuilder struct {
	buf []byte
}

func (b *arenaBuilder) align8() {
	for len(b.buf)%8 != 0 {
		b.buf = append(b.buf, 0)
	}
}

func (b *arenaBuilder) u8(v uint8)   { b.buf = append(b.buf, v) }
func (b *arenaBuilder) u32(v uint32) { b.buf = binary.LittleEndian.AppendUint32(b.buf, v) }
func (b *arenaBuilder) u64(v uint64) { b.buf = binary.LittleEndian.AppendUint64(b.buf, v) }
func (b *arenaBuilder) bytes(p []byte) {
	b.buf = append(b.buf, p...)
}

// section 8-aligns the buffer and records the upcoming section's offset.
func (b *arenaBuilder) section(sec int) {
	b.align8()
	binary.LittleEndian.PutUint64(b.buf[hdrSections+8*sec:], uint64(len(b.buf)))
}

// SaveArena writes the snapshot as a columnar arena image loadable with
// LoadArena. sigma must be the rule set the snapshot was built for
// (NewForRules); its rules' probe plans and pattern bitmaps are frozen
// into the image, and LoadArena will only accept the image against an
// equivalent Σ. The snapshot may be anywhere in a delta chain: a shard
// with an empty overlay is written as the table it holds, one with an
// overlay as the compacted table of the merged view.
func (d *Data) SaveArena(w io.Writer, sigma *rule.Set) error {
	if !sigma.MasterSchema().Equal(d.rel.Schema()) {
		return fmt.Errorf("master: save arena: snapshot schema %s does not match Σ's master schema %s",
			d.rel.Schema().Name(), sigma.MasterSchema().Name())
	}
	for _, ru := range sigma.Rules() {
		if _, ok := d.plans[ru]; !ok {
			return fmt.Errorf("master: save arena: rule %s has no probe plan in this snapshot (build with NewForRules for the same Σ)", ru.Name())
		}
		if _, ok := d.compat[ru]; !ok {
			return fmt.Errorf("master: save arena: rule %s has no compatibility plan in this snapshot", ru.Name())
		}
	}

	schema := d.rel.Schema()
	n := d.rel.Len()
	arity := schema.Arity()

	b := &arenaBuilder{buf: make([]byte, arenaHeaderSize, arenaHeaderSize+64*n)}

	// Schema: name, then each attribute's name and type.
	b.section(secSchema)
	b.u32(uint32(len(schema.Name())))
	b.bytes([]byte(schema.Name()))
	for i := 0; i < arity; i++ {
		attr := schema.Attr(i)
		b.u32(uint32(len(attr.Name)))
		b.bytes([]byte(attr.Name))
		b.u8(uint8(attr.Type))
	}

	// Assign every distinct cell value an id: interned values keep their
	// symbol-table ids (the stable-id contract the bucket hashes depend
	// on), extension values extend the id space in row-major scan order.
	vals := d.syms.Export()
	nsyms := len(vals)
	ids := make(map[relation.Value]uint32, nsyms)
	for i, v := range vals {
		ids[v] = uint32(i)
	}
	colIDs := make([]uint32, n*arity)
	for i := 0; i < n; i++ {
		t := d.rel.Tuple(i)
		for c := 0; c < arity; c++ {
			id, ok := ids[t[c]]
			if !ok {
				id = uint32(len(vals))
				ids[t[c]] = id
				vals = append(vals, t[c])
			}
			colIDs[c*n+i] = id
		}
	}

	// Symbols: count, fixed records, string heap.
	b.section(secSymbols)
	b.u32(uint32(len(vals)))
	b.align8()
	heapLen := 0
	for _, v := range vals {
		b.u8(uint8(v.Kind()))
		b.u8(0)
		b.u8(0)
		b.u8(0)
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
	for _, v := range vals {
		if v.Kind() == relation.KindString {
			b.bytes([]byte(v.Str()))
		}
	}

	// Columns: arity × n uint32 ids, column-major.
	b.section(secColumns)
	for _, id := range colIDs {
		b.u32(id)
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
			writeTable(b, idx.shards[s].compact())
		}
	}

	// Postings: per posting list, the column then per-shard tables.
	b.section(secPostings)
	for _, ps := range d.postings {
		b.u32(uint32(ps.col))
		b.u32(0)
		for s := range ps.shards {
			writeTable(b, ps.shards[s].compact())
		}
	}

	// Rules: per rule of Σ in Σ order, signature + pattern bitmap.
	b.section(secRules)
	for _, ru := range sigma.Rules() {
		cp := d.compat[ru]
		b.u64(ruleSig(ru))
		b.u32(uint32(cp.patCount))
		b.u32(uint32(len(cp.patBits)))
		for _, w := range cp.patBits {
			b.u64(w)
		}
	}
	b.align8()

	// Auth: presence flag + the snapshot's sparse-Merkle root. Saved even
	// when unauthenticated (flag 0, zero root) so the section table is
	// uniform; the loader rebuilds and verifies the tree only when the
	// flag is set.
	b.section(secAuth)
	if root, ok := d.AuthRoot(); ok {
		b.u32(1)
		b.u32(0)
		b.bytes(root[:])
	} else {
		b.u32(0)
		b.u32(0)
		b.bytes(make([]byte, 32))
	}

	hdr := b.buf[:arenaHeaderSize]
	copy(hdr[hdrMagic:], arenaMagic)
	binary.LittleEndian.PutUint32(hdr[hdrVersion:], arenaVersion)
	binary.LittleEndian.PutUint32(hdr[hdrEndian:], arenaEndianMark)
	binary.LittleEndian.PutUint64(hdr[hdrEpoch:], d.epoch)
	binary.LittleEndian.PutUint64(hdr[hdrNTuples:], uint64(n))
	binary.LittleEndian.PutUint32(hdr[hdrNShards:], uint32(d.nshards))
	binary.LittleEndian.PutUint32(hdr[hdrArity:], uint32(arity))
	binary.LittleEndian.PutUint32(hdr[hdrNSyms:], uint32(nsyms))
	binary.LittleEndian.PutUint32(hdr[hdrNIndexes:], uint32(len(d.indexes)))
	binary.LittleEndian.PutUint32(hdr[hdrNPosts:], uint32(len(d.postings)))
	binary.LittleEndian.PutUint32(hdr[hdrNRules:], uint32(sigma.Len()))
	binary.LittleEndian.PutUint64(hdr[hdrFileSize:], uint64(len(b.buf)))

	_, err := w.Write(b.buf)
	return err
}

// SaveArenaFile writes the arena to path atomically AND durably: temp
// file in the target directory, fsync the file, rename over path, fsync
// the directory. A crash at any point leaves either the old file or the
// complete new one — never a truncated snapshot, and never a rename
// that a power cut can undo.
func (d *Data) SaveArenaFile(path string, sigma *rule.Set) error {
	tmp, err := os.CreateTemp(dirOf(path), ".arena-*")
	if err != nil {
		return fmt.Errorf("master: save arena: %w", err)
	}
	defer os.Remove(tmp.Name())
	bw := bufio.NewWriterSize(tmp, 1<<20)
	if err := d.SaveArena(bw, sigma); err != nil {
		tmp.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		tmp.Close()
		return fmt.Errorf("master: save arena: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("master: save arena: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("master: save arena: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("master: save arena: %w", err)
	}
	dir, err := os.Open(dirOf(path))
	if err != nil {
		return fmt.Errorf("master: save arena: %w", err)
	}
	defer dir.Close()
	if err := dir.Sync(); err != nil {
		return fmt.Errorf("master: save arena: %w", err)
	}
	return nil
}

func dirOf(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' || path[i] == os.PathSeparator {
			return path[:i+1]
		}
	}
	return "."
}

// writeTable writes one frozen table: header (nslots, nkeys, nids), slot
// array, id array at the image's id width, padded back to 8.
func writeTable[ID int | int32](b *arenaBuilder, t table[ID]) {
	b.u64(uint64(len(t.slots) / 2))
	b.u64(uint64(t.nkeys))
	b.u64(uint64(len(t.ids)))
	for _, w := range t.slots {
		b.u64(w)
	}
	wide := idWidth[ID]() == 8
	for _, id := range t.ids {
		if wide {
			b.u64(uint64(id))
		} else {
			b.u32(uint32(id))
		}
	}
	b.align8()
}
