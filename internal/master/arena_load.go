package master

// This file implements the load side of the columnar arena (arena.go):
// LoadArena maps the file (or falls back to reading it) and assembles a
// fully usable Data snapshot whose frozen tables (table.go) and pattern
// bitmaps are views into the raw bytes — no per-tuple hashing, no
// map construction proportional to |Dm|. The only O(|Dm|) work is a
// streaming validation pass plus transposing the id columns into rows;
// string payloads stay in the arena (symbol values alias the mapping
// zero-copy).
//
// Validation is EAGER: the trailer's checksum first, then every offset,
// count, table invariant and id range is checked here, so the probe hot path runs with no bounds checks and a
// snapshot that loads without error can never cause an out-of-range
// access later. Hostile input fails with a *SnapshotError (matching
// ErrBadSnapshot) before any allocation larger than the input itself —
// section byte counts are claimed from the file before dependent slices
// are sized, so a small corrupt file cannot demand a huge allocation.
//
// The mapping stays alive for as long as any snapshot derived from it:
// loaded values alias the arena bytes, so the mapping is never unmapped
// (it is dropped only with the process; a service loads one arena per
// master generation, so this is by design, not a leak).

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/bits"
	"os"
	"unsafe"

	"repro/internal/parallel"
	"repro/internal/persist"
	"repro/internal/relation"
	"repro/internal/rule"
)

// arenaRef pins the backing bytes of a loaded snapshot and records how
// they were obtained (for MemStats; the bytes themselves are reachable
// through the index views regardless).
type arenaRef struct {
	data   []byte
	mapped bool
}

// maxArenaTuples bounds |Dm| in a snapshot: ids must fit the int of a 32-bit
// platform, and a bucket's span packs its offset and count in 32 bits each.
const maxArenaTuples = 1<<31 - 1

// areader is a sticky-error cursor over the arena bytes: the first
// failure is recorded with its section and offset, and every later read
// returns zero values, so decode paths need no per-read error plumbing.
type areader struct {
	b   []byte
	off int
	sec string
	err error
}

func (r *areader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = &SnapshotError{Section: r.sec, Offset: r.off, Msg: fmt.Sprintf(format, args...)}
	}
}

// take claims the next n bytes, failing (once) on truncation.
func (r *areader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.b)-r.off {
		r.fail("truncated: need %d bytes, %d remain", n, len(r.b)-r.off)
		return nil
	}
	p := r.b[r.off : r.off+n]
	r.off += n
	return p
}

func (r *areader) u8() uint8 {
	if p := r.take(1); p != nil {
		return p[0]
	}
	return 0
}

func (r *areader) u32() uint32 {
	if p := r.take(4); p != nil {
		return uint32(p[0]) | uint32(p[1])<<8 | uint32(p[2])<<16 | uint32(p[3])<<24
	}
	return 0
}

func (r *areader) u64() uint64 {
	if p := r.take(8); p != nil {
		return uint64(p[0]) | uint64(p[1])<<8 | uint64(p[2])<<16 | uint64(p[3])<<24 |
			uint64(p[4])<<32 | uint64(p[5])<<40 | uint64(p[6])<<48 | uint64(p[7])<<56
	}
	return 0
}

func (r *areader) align8() { r.take((8 - r.off%8) % 8) }

// count converts a stored u64 count to int under a limit, failing on
// overflow or excess — the guard every allocation and slice bound passes
// through.
func (r *areader) count(v uint64, limit int, what string) int {
	if r.err != nil {
		return 0
	}
	if v > uint64(limit) {
		r.fail("%s %d exceeds limit %d", what, v, limit)
		return 0
	}
	return int(v)
}

// LoadArena loads a snapshot saved with SaveArena, mapping the file into
// memory where the platform supports it and reading it otherwise. sigma
// must be equivalent to the Σ the snapshot was saved for (same master
// schema, same rules in the same order); the loaded snapshot's probe
// plans are bound to sigma's rule pointers. Failures match ErrBadSnapshot
// via errors.Is, with a *SnapshotError locating the corruption.
func LoadArena(path string, sigma *rule.Set) (*Data, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("master: load arena: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("master: load arena: %w", err)
	}
	size := fi.Size()
	if size > int64(int(^uint(0)>>1)) {
		return nil, &SnapshotError{Section: "header", Offset: -1, Msg: "file too large for address space"}
	}
	b, mapped := mmapArena(f, int(size))
	if b == nil {
		if b, err = os.ReadFile(path); err != nil {
			return nil, fmt.Errorf("master: load arena: %w", err)
		}
	}
	d, err := loadArena(b, sigma, mapped)
	if err != nil && mapped {
		munmapArena(b)
	}
	return d, err
}

// LoadArenaBytes loads a snapshot from an in-memory image (the
// io.ReaderAt/byte-slice portability path, and the fuzz target). The
// loaded snapshot retains b; callers must not mutate it afterwards.
func LoadArenaBytes(b []byte, sigma *rule.Set) (*Data, error) {
	return loadArena(b, sigma, false)
}

func loadArena(b []byte, sigma *rule.Set, mapped bool) (*Data, error) {
	// The tables and columns are viewed in place as []uint64/[]uint32, so the
	// backing bytes must be 8-aligned. mmap is page-aligned; a caller
	// slice might not be — realign with one copy.
	if len(b) > 0 && uintptr(unsafe.Pointer(&b[0]))%8 != 0 {
		aligned := make([]uint64, (len(b)+7)/8)
		dst := unsafe.Slice((*byte)(unsafe.Pointer(&aligned[0])), len(b))
		copy(dst, b)
		b, mapped = dst, false
	}

	hr := &areader{b: b, sec: "header"}
	if len(b) < arenaHeaderSize+arenaTrailerSize {
		hr.fail("truncated: %d bytes, header and trailer need %d", len(b), arenaHeaderSize+arenaTrailerSize)
		return nil, hr.err
	}
	if string(b[hdrMagic:hdrMagic+8]) != arenaMagic {
		hr.off = hdrMagic
		hr.fail("bad magic %q", b[hdrMagic:hdrMagic+8])
		return nil, hr.err
	}
	hr.off = hdrVersion
	version := hr.u32()
	if version != arenaVersion {
		hr.off = hdrVersion
		hr.fail("unsupported version %d (want %d)", version, arenaVersion)
		return nil, hr.err
	}
	// Read the endian marker in HOST order: a mismatch means either a
	// corrupt file or a big-endian host, and the in-place views are wrong
	// in both cases.
	if *(*uint32)(unsafe.Pointer(&b[hdrEndian])) != arenaEndianMark {
		hr.off = hdrEndian
		hr.fail("endian marker mismatch (corrupt file or big-endian host)")
		return nil, hr.err
	}
	// No count or section is read before the checksum over them: the
	// sections below are decoded from body, the bytes the trailer covers.
	body := b[:len(b)-arenaTrailerSize]
	if sum, stored := crc32.Checksum(body, arenaCRC), binary.LittleEndian.Uint32(b[len(body):]); sum != stored {
		return nil, &SnapshotError{Section: "trailer", Offset: len(body),
			Msg: fmt.Sprintf("checksum %#08x does not match the image's %#08x", stored, sum)}
	}
	hr.off = hdrEpoch
	epoch := hr.u64()
	n := hr.count(hr.u64(), maxArenaTuples, "tuple count")
	nshards := hr.count(uint64(hr.u32()), MaxShards, "shard count")
	arity := hr.count(uint64(hr.u32()), 1<<16, "arity")
	nsyms := hr.count(uint64(hr.u32()), len(b)/16, "symbol count")
	nindexes := hr.count(uint64(hr.u32()), 1<<12, "index count")
	nrules := hr.count(uint64(hr.u32()), 1<<20, "rule count")
	if hr.err == nil && nshards < 1 {
		hr.fail("shard count 0")
	}
	if hr.err == nil && arity < 1 {
		hr.fail("arity 0")
	}
	if sz := hr.u64(); hr.err == nil && sz != uint64(len(b)) {
		hr.off = hdrFileSize
		hr.fail("header file size %d does not match actual size %d", sz, len(b))
	}
	// The section table, in file order.
	var secOff [numSections]int
	prev := arenaHeaderSize
	for i := range secOff {
		secOff[i] = hr.count(hr.u64(), len(body), "section offset")
		if hr.err == nil && (secOff[i] < prev || secOff[i]%8 != 0) {
			hr.off = hdrSections + 8*i
			hr.fail("section offset %d (table slot %d) out of order or misaligned", secOff[i], i)
		}
		prev = secOff[i]
	}
	if hr.err != nil {
		return nil, hr.err
	}
	if err := checkArenaSchema(body, secOff[secSchema], arity, sigma.MasterSchema()); err != nil {
		return nil, err
	}

	vals, err := decodeArenaSymbols(body, secOff[secSymbols], nsyms)
	if err != nil {
		return nil, err
	}
	syms, symErr := relation.SymbolsFromValues(vals)
	if symErr != nil {
		return nil, &SnapshotError{Section: "symbols", Offset: -1, Msg: symErr.Error()}
	}

	rows, err := decodeArenaColumns(body, secOff[secColumns], n, arity, len(vals))
	if err != nil {
		return nil, err
	}

	d := &Data{
		epoch:   epoch,
		nshards: nshards,
		schema:  sigma.MasterSchema(),
		rows:    rows,
		syms:    syms,
		hasher:  relation.NewHasher(syms),
		plans:   make(map[*rule.Rule]*index, nrules),
		compat:  make(map[*rule.Rule]*compatPlan, nrules),
		arena:   &arenaRef{data: b, mapped: mapped},
	}

	ir := &areader{b: body, off: secOff[secIndexes], sec: "indexes"}
	for i := 0; i < nindexes; i++ {
		idx, err := decodeArenaIndex(ir, nshards, arity, n)
		if err != nil {
			return nil, err
		}
		d.indexes = append(d.indexes, idx)
	}

	if nrules != sigma.Len() {
		return nil, &SnapshotError{Section: "rules", Offset: -1,
			Msg: fmt.Sprintf("snapshot has %d rules, Σ has %d", nrules, sigma.Len())}
	}
	rr := &areader{b: body, off: secOff[secRules], sec: "rules"}
	for i := 0; i < nrules; i++ {
		ru := sigma.Rule(i)
		idx := d.findIndex(ru.LHSMRef())
		if idx == nil {
			return nil, &SnapshotError{Section: "rules", Offset: -1,
				Msg: fmt.Sprintf("rule %s: no index over its Xm in snapshot", ru.Name())}
		}
		idx.trackRHS(ru.RHSM())
		d.plans[ru] = idx
		// The plan finds its one-column indexes among the decoded ones; one
		// the image lacks is registered, unbuilt, and refused.
		d.compat[ru] = d.registerCompatPlan(ru)
		if len(d.indexes) > nindexes {
			return nil, &SnapshotError{Section: "rules", Offset: -1,
				Msg: fmt.Sprintf("rule %s: no one-column index over a column of its Xm in snapshot", ru.Name())}
		}
		if err := decodeArenaRule(rr, ru, n, d.compat[ru]); err != nil {
			return nil, err
		}
	}
	// Exception tables are not stored: they are recomputed from the decoded
	// buckets and rows, so a probe trusts only what this pass verified. The
	// jobs are (index, shard) pairs, so a load is as parallel at P = 1 as at
	// any other P.
	if _, err := parallel.Map(nindexes*nshards, 0, func(k int) (struct{}, error) {
		d.indexes[k/nshards].rebuildExceptions(k%nshards, &d.rows)
		return struct{}{}, nil
	}); err != nil {
		return nil, err // unreachable: the rebuild cannot fail
	}

	// Auth: when the flag is set, rebuild the Merkle commitment from the
	// decoded tuples and verify it against the stored root — a
	// recompute-and-verify, so a tampered image cannot smuggle in either a
	// wrong root or wrong tuples under a right one. Flag-0 images load
	// unauthenticated.
	ar := &areader{b: body, off: secOff[secAuth], sec: "auth"}
	flag := ar.u32()
	ar.u32() // padding
	stored := ar.take(32)
	if ar.err != nil {
		return nil, ar.err
	}
	switch flag {
	case 0:
	case 1:
		d.Authenticate()
		if root := d.auth.Root(); string(root[:]) != string(stored) {
			return nil, &SnapshotError{Section: "auth", Offset: secOff[secAuth],
				Msg: fmt.Sprintf("stored root %x does not match recomputed root %s", stored, root)}
		}
	default:
		return nil, &SnapshotError{Section: "auth", Offset: secOff[secAuth],
			Msg: fmt.Sprintf("invalid auth flag %d", flag)}
	}
	return d, nil
}

// checkArenaSchema decodes the schema section and compares it with Σ's
// master schema (name, attribute names and types, in order).
func checkArenaSchema(b []byte, off, arity int, want *relation.Schema) error {
	r := &areader{b: b, off: off, sec: "schema"}
	nameLen := r.count(uint64(r.u32()), len(b), "schema name length")
	name := string(r.take(nameLen))
	if r.err == nil && (name != want.Name() || arity != want.Arity()) {
		r.fail("snapshot schema %s/%d does not match Σ's master schema %s/%d",
			name, arity, want.Name(), want.Arity())
	}
	for i := 0; i < arity && r.err == nil; i++ {
		attrLen := r.count(uint64(r.u32()), len(b), "attribute name length")
		attrName := string(r.take(attrLen))
		typ := relation.Type(r.u8())
		if r.err != nil {
			break
		}
		if a := want.Attr(i); attrName != a.Name || typ != a.Type {
			r.fail("attribute %d is %s/%v, Σ's master schema has %s/%v", i, attrName, typ, a.Name, a.Type)
		}
	}
	return r.err
}

// decodeArenaSymbols decodes the value records and string heap into the
// id-ordered value slice; string payloads alias the arena bytes.
func decodeArenaSymbols(b []byte, off, nsyms int) ([]relation.Value, error) {
	r := &areader{b: b, off: off, sec: "symbols"}
	nvals := r.count(uint64(r.u32()), len(b)/16, "value count")
	if r.err == nil && nvals != nsyms {
		r.fail("value count %d is not the header's symbol count %d", nvals, nsyms)
	}
	r.align8()
	records := r.take(16 * nvals)
	heapLen := r.count(r.u64(), len(b), "string heap length")
	heap := r.take(heapLen)
	if r.err != nil {
		return nil, r.err
	}
	vals := make([]relation.Value, nvals)
	for i := range vals {
		rec := records[16*i : 16*i+16]
		kind := relation.Kind(rec[0])
		strLen := uint32(rec[4]) | uint32(rec[5])<<8 | uint32(rec[6])<<16 | uint32(rec[7])<<24
		payload := uint64(rec[8]) | uint64(rec[9])<<8 | uint64(rec[10])<<16 | uint64(rec[11])<<24 |
			uint64(rec[12])<<32 | uint64(rec[13])<<40 | uint64(rec[14])<<48 | uint64(rec[15])<<56
		switch kind {
		case relation.KindNull:
			if strLen != 0 || payload != 0 {
				r.off = off
				r.fail("value %d: null with non-zero payload", i)
				return nil, r.err
			}
		case relation.KindInt:
			if strLen != 0 {
				r.off = off
				r.fail("value %d: int with string length", i)
				return nil, r.err
			}
			vals[i] = relation.Int(int64(payload))
		case relation.KindString:
			end := payload + uint64(strLen)
			if end > uint64(heapLen) {
				r.off = off
				r.fail("value %d: string span [%d,%d) outside heap of %d bytes", i, payload, end, heapLen)
				return nil, r.err
			}
			vals[i] = relation.String(viewString(heap[payload:end]))
		default:
			r.off = off
			r.fail("value %d: unknown kind %d", i, kind)
			return nil, r.err
		}
	}
	return vals, nil
}

// decodeArenaColumns transposes the validated column-major id vectors into
// the snapshot's rows: one row-major slab of n×arity ids and one array of
// row headers over it — two allocations, no value touched.
func decodeArenaColumns(b []byte, off, n, arity, nvals int) (rowVec, error) {
	r := &areader{b: b, off: off, sec: "columns"}
	if n > 0 && arity > (len(b)/4)/n {
		r.fail("column section for %d×%d cells exceeds file size", n, arity)
		return rowVec{}, r.err
	}
	raw := r.take(4 * n * arity)
	if r.err != nil {
		return rowVec{}, r.err
	}
	cells := viewU32(raw)
	slab := make([]uint32, n*arity)
	// A block of rows at a time, so the slab lines a column pass writes are
	// still cached when the next column's pass comes back to them.
	const block = 512
	for lo := 0; lo < n; lo += block {
		hi := min(lo+block, n)
		for c := 0; c < arity; c++ {
			for i, id := range cells[c*n+lo : c*n+hi] {
				if int(id) >= nvals {
					r.off = off + 4*(c*n+lo+i)
					r.fail("cell (%d,%d): value id %d out of range %d", lo+i, c, id, nvals)
					return rowVec{}, r.err
				}
				slab[(lo+i)*arity+c] = id
			}
		}
	}
	rows := make([][]uint32, n)
	for i := range rows {
		rows[i] = slab[i*arity : (i+1)*arity : (i+1)*arity]
	}
	return persist.FromSlice(rows), nil
}

// decodeArenaIndex decodes one index: Xm list, then a table per shard.
func decodeArenaIndex(r *areader, nshards, arity, n int) (*index, error) {
	nxm := r.count(uint64(r.u32()), arity, "index Xm length")
	if r.err == nil && nxm < 1 {
		r.fail("index with empty Xm")
	}
	xm := make([]int, nxm)
	for i := range xm {
		xm[i] = r.count(uint64(r.u32()), arity-1, "index Xm position")
	}
	r.align8()
	idx := newIndex(xm, nshards)
	for s := 0; s < nshards && r.err == nil; s++ {
		idx.shards[s].frozen = decodeTable(r, n, s, nshards)
	}
	return idx, r.err
}

// decodeTable views shard s of nshards' frozen table in place, fully
// validated: a power-of-two slot count with an empty slot for probe
// termination, every key routed to this shard (a probe looks nowhere else),
// spans inside the id array, key and id counts matching the header, ids in
// [0, n) and ascending per bucket. On failure r.err is set and the result
// unusable.
func decodeTable(r *areader, n, s, nshards int) table {
	start := r.off
	nslots := r.count(r.u64(), len(r.b)/16, "table slot count")
	nkeys := r.count(r.u64(), len(r.b)/16, "table key count")
	nids := r.count(r.u64(), len(r.b)/idWidth, "table id count")
	if r.err == nil && (nslots < 2 || nslots&(nslots-1) != 0 || nkeys >= nslots) {
		r.off = start
		r.fail("slot count %d not a power of two ≥ 2 with an empty slot beside %d keys", nslots, nkeys)
	}
	slots := viewU64(r.take(16 * nslots))
	ids := viewIDs(r.take(idWidth * nids))
	if r.err != nil {
		return table{}
	}
	occupied, span := 0, 0
	for slot := 0; slot < nslots; slot++ {
		packed := slots[2*slot+1]
		if packed == 0 {
			continue
		}
		occupied++
		if home := keyShard(slots[2*slot], nshards); home != s {
			r.off = start
			r.fail("key %#x sits in shard %d but routes to shard %d of %d", slots[2*slot], s, home, nshards)
			return table{}
		}
		off, cnt := int(packed>>32), int(packed&0xffffffff)
		if cnt < 1 || off < 0 || off > nids-cnt {
			r.off = start
			r.fail("bucket span [%d,%d) outside %d ids", off, off+cnt, nids)
			return table{}
		}
		span += cnt
		prev := -1
		for _, id := range ids[off : off+cnt] {
			if id >= n || id <= prev {
				r.off = start
				r.fail("bucket id %d out of range %d or not ascending", id, n)
				return table{}
			}
			prev = id
		}
	}
	if occupied != nkeys || span != nids {
		r.off = start
		r.fail("table holds %d keys/%d ids, header says %d/%d", occupied, span, nkeys, nids)
		return table{}
	}
	return table{slots: slots, mask: uint64(nslots - 1), ids: ids, nkeys: nkeys}
}

// decodeArenaRule decodes one rule record and validates it against the
// corresponding rule of Σ: the signature binds the saved bitmap to the
// rule's exact definition, the bitmap's word count must fit |Dm|, bits
// beyond |Dm| must be zero, and the stored support count must equal the
// bitmap's popcount. The bitmap and its count go into plan.
func decodeArenaRule(r *areader, ru *rule.Rule, n int, plan *compatPlan) error {
	start := r.off
	sig := r.u64()
	if r.err == nil && sig != ruleSig(ru) {
		r.off = start
		r.fail("rule %s: signature mismatch (snapshot saved for a different Σ)", ru.Name())
	}
	patCount := r.count(uint64(r.u32()), n, "pattern support count")
	words := (n + 63) / 64
	nwords := r.count(uint64(r.u32()), len(r.b)/8, "bitmap word count")
	if r.err == nil && nwords != words {
		r.off = start
		r.fail("rule %s: bitmap has %d words, |Dm|=%d needs %d", ru.Name(), nwords, n, words)
	}
	patBits := viewU64(r.take(8 * nwords))
	if r.err != nil {
		return r.err
	}
	pop := 0
	for _, w := range patBits {
		pop += bits.OnesCount64(w)
	}
	if tail := n % 64; tail != 0 && words > 0 && patBits[words-1]>>uint(tail) != 0 {
		r.off = start
		r.fail("rule %s: bitmap bits set beyond |Dm|=%d", ru.Name(), n)
		return r.err
	}
	if pop != patCount {
		r.off = start
		r.fail("rule %s: support count %d does not match bitmap popcount %d", ru.Name(), patCount, pop)
		return r.err
	}
	plan.patBits, plan.patCount = persist.FromSlice(patBits), patCount
	return nil
}
