package master

// This file implements the load side of the arena (arena.go): LoadArena
// maps the file (or falls back to reading it) and assembles a fully usable
// Data snapshot whose rows (rows.go) and frozen tables (table.go) are views
// into the raw bytes — no header per row, no per-tuple hashing, no map
// construction proportional to |Dm|. The O(|Dm|) work is one pool of jobs
// on the cores, in file order: the trailer's checksum, in pieces; the
// symbols' decode; the rows' range checks; and one job per (index, shard)
// that validates its table and, in the same walk, derives its exception
// table from the image's cells. Once the pool has passed, one job per rule
// counts its pattern support by symbol id. String payloads stay in the
// arena (symbol values alias the mapping zero-copy).
//
// Validation is EAGER: the trailer's checksum and every offset, count,
// table invariant and id range are checked here, so the probe hot path runs
// with no bounds checks and a snapshot that loads without error can never
// cause an out-of-range access later. Hostile input fails with a
// *SnapshotError (matching ErrBadSnapshot), and every count is held against
// the bytes that must back it before anything is sized by it, so a small
// corrupt file cannot demand a huge allocation — whether or not the
// checksum has been computed yet. The pool's jobs are in file order, the
// checksum first, and the first failing one is reported, so the error is
// the same at every GOMAXPROCS and a checksum mismatch wins over any other
// failure but a file too short for a header and trailer or a bad magic,
// version or endian marker, which are refused before the pool starts.
//
// The mapping stays alive for as long as any snapshot derived from it:
// loaded rows and values alias the arena bytes, so the mapping is never
// unmapped (it is dropped only with the process; a service loads one arena
// per master generation, so this is by design, not a leak).

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"slices"
	"unsafe"

	"repro/internal/parallel"
	"repro/internal/relation"
	"repro/internal/rule"
	"repro/internal/wal"
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
	// The tables and rows are viewed in place as []uint64/[]uint32, so the
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
	// From here on the load is one pool of jobs in file order, the checksum
	// first, so a mismatch is reported over any other failure: a count or
	// section read before the sum is known is held against the bytes that
	// back it like any other. A failure found while laying the jobs out ends
	// the list as a job that returns it.
	body := b[:len(b)-arenaTrailerSize]
	jobs := []func() error{func() error { return checkTrailer(b) }}
	fail := func(err error) (*Data, error) {
		jobs = append(jobs, func() error { return err })
		return nil, runJobs(jobs)
	}
	hr.off = hdrEpoch
	epoch := hr.u64()
	n := hr.count(hr.u64(), maxArenaTuples, "tuple count")
	nshards := hr.count(uint64(hr.u32()), MaxShards, "shard count")
	arity := hr.count(uint64(hr.u32()), 1<<16, "arity")
	nsyms := hr.count(uint64(hr.u32()), len(b), "symbol count")
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
		return fail(hr.err)
	}
	if err := checkArenaSchema(body, secOff[secSchema], arity, sigma.MasterSchema()); err != nil {
		return fail(err)
	}

	// The symbols decode in one job, and the rows are range-checked in jobs of
	// rowsPerCheck rows each, in place: the rows section is viewed as blocks
	// of cells, with no header per row.
	var syms *relation.Symbols
	jobs = append(jobs, func() (err error) {
		syms, err = decodeArenaSymbols(body[secOff[secSymbols]:secOff[secRows]], secOff[secSymbols], nsyms)
		return err
	})
	rr := &areader{b: body, off: secOff[secRows], sec: "rows"}
	if n > 0 && arity > (len(body)/4)/n {
		rr.fail("rows section for %d×%d cells exceeds file size", n, arity)
	}
	cells := viewU32(rr.take(4 * n * arity))
	if rr.err != nil {
		return fail(rr.err)
	}
	for lo := 0; lo < len(cells); lo += rowsPerCheck * arity {
		jobs = append(jobs, func() error {
			return checkCellRange(cells[lo:min(lo+rowsPerCheck*arity, len(cells))], lo, arity, nsyms, secOff[secRows])
		})
	}

	if nrules != sigma.Len() {
		return fail(&SnapshotError{Section: "rules", Offset: -1,
			Msg: fmt.Sprintf("snapshot has %d rules, Σ has %d", nrules, sigma.Len())})
	}
	sr := &areader{b: body, off: secOff[secRules], sec: "rules"}
	for _, ru := range sigma.Rules() {
		if sig := sr.u64(); sr.err == nil && sig != ruleSig(ru) {
			sr.off -= 8
			sr.fail("rule %s: signature mismatch (snapshot saved for a different Σ)", ru.Name())
		}
		if sr.err != nil {
			return fail(sr.err)
		}
	}

	// The lineage's plan is Σ's: the image must hold exactly its indexes, in
	// its order — none missing, none over another Xm list.
	p := newPlan(sigma)
	if nindexes != len(p.indexes) {
		return fail(&SnapshotError{Section: "indexes", Offset: secOff[secIndexes],
			Msg: fmt.Sprintf("snapshot has %d indexes, Σ's plan has %d", nindexes, len(p.indexes))})
	}
	d := &Data{
		epoch:   epoch,
		nshards: nshards,
		schema:  sigma.MasterSchema(),
		rows:    viewRows(cells, n, arity),
		plan:    p,
		shards:  make([]indexShard, nindexes*nshards),
		arena:   &arenaRef{data: b, mapped: mapped},
	}
	// Every shard table is validated, and what the image does not store
	// derived from the rows it does, so a probe trusts only what the pool
	// verified: each (index, shard) job checks its table's buckets and, once a
	// bucket's ids have passed, derives its exception mask from the image's
	// cells — compared, never used as symbol ids, so it needs no other job.
	// The tables are laid out first, serially, a few header reads each; a
	// layout failure follows the jobs of the tables laid out before it.
	ir := &areader{b: body, off: secOff[secIndexes], sec: "indexes"}
	for k, v := range layoutArenaIndexes(ir, p, nshards) {
		jobs = append(jobs, func() error { return d.indexAt(k/nshards).loadShard(k%nshards, v, &d.rows) })
	}
	if ir.err != nil {
		return fail(ir.err)
	}
	if err := runJobs(jobs); err != nil {
		return nil, err
	}
	// Each rule's pattern support is counted by symbol id, once the symbols
	// are known.
	d.syms = syms
	d.supported, _ = parallel.Map(len(p.rules), 0, func(r int) (int, error) {
		return d.countSupported(r), nil
	})

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

// decodeArenaSymbols decodes the symbol section sec, at offset off of the
// image, into the snapshot's interning table: nsyms cells read by the WAL's
// decoder, string payloads aliasing the image, and after them nothing but
// the zero padding to the next section.
func decodeArenaSymbols(sec []byte, off, nsyms int) (*relation.Symbols, error) {
	dec := wal.NewDecoder(sec)
	fail := func(format string, args ...any) error {
		return &SnapshotError{Section: "symbols", Offset: off + len(sec) - dec.Remaining(), Msg: fmt.Sprintf(format, args...)}
	}
	if nsyms > len(sec) { // a cell is at least one byte
		return nil, fail("symbol count %d exceeds the section's %d bytes", nsyms, len(sec))
	}
	dec.AliasStrings()
	vals := make([]relation.Value, nsyms)
	for i := range vals {
		vals[i] = dec.Cell()
	}
	if err := dec.Err(); err != nil {
		return nil, fail("%v", err)
	}
	if pad := sec[len(sec)-dec.Remaining():]; len(pad) >= 8 || slices.ContainsFunc(pad, func(c byte) bool { return c != 0 }) {
		return nil, fail("%d bytes after the header's %d symbols", len(pad), nsyms)
	}
	syms, err := relation.SymbolsFromValues(vals)
	if err != nil {
		return nil, &SnapshotError{Section: "symbols", Offset: -1, Msg: err.Error()}
	}
	return syms, nil
}

// rowsPerCheck is how many rows one job of the load's range check covers.
const rowsPerCheck = 1 << 14

// checkCellRange checks that every cell of the rows section from cell lo on is a
// symbol's id; the section starts at offset off of the image.
func checkCellRange(cells []uint32, lo, arity, nsyms, off int) error {
	for j, id := range cells {
		if id >= uint32(nsyms) {
			i, c := (lo+j)/arity, (lo+j)%arity
			return &SnapshotError{Section: "rows", Offset: off + 4*(lo+j),
				Msg: fmt.Sprintf("cell (%d,%d): value id %d out of range %d", i, c, id, nsyms)}
		}
	}
	return nil
}

// crcPiece bounds the bytes one call of crc32.Update hashes: the call is
// assembly, which a stop-the-world waits for, and over a whole image it
// kept one waiting for milliseconds.
const crcPiece = 1 << 20

// checkTrailer checks the image's trailer against the CRC-32C of every byte
// before it.
func checkTrailer(b []byte) error {
	body := b[:len(b)-arenaTrailerSize]
	var sum uint32
	for p := body; len(p) > 0; p = p[min(len(p), crcPiece):] {
		sum = crc32.Update(sum, arenaCRC, p[:min(len(p), crcPiece)])
	}
	if stored := binary.LittleEndian.Uint32(b[len(body):]); sum != stored {
		return &SnapshotError{Section: "trailer", Offset: len(body),
			Msg: fmt.Sprintf("checksum %#08x does not match the image's %#08x", stored, sum)}
	}
	return nil
}

// runJobs runs the load's jobs on the cores and returns the failure of the
// first failing one in list order, the same at every GOMAXPROCS.
func runJobs(jobs []func() error) error {
	_, err := parallel.Map(len(jobs), 0, func(k int) (struct{}, error) { return struct{}{}, jobs[k]() })
	return err
}

// tableView is one shard table as the image lays it out: the table viewed
// in place, and its offset in the image.
type tableView struct {
	t     table
	start int
}

// layoutArenaIndexes walks the index section of Σ's plan p, index by index —
// its Xm list, which must be the plan's, then a table per shard — and views
// each table in place, checking only what locating the next one needs. It
// stops at the first failure, left in r.err, and returns the tables laid out
// before it, in file order.
func layoutArenaIndexes(r *areader, p *plan, nshards int) []tableView {
	views := make([]tableView, 0, len(p.indexes)*nshards)
	for i := range p.indexes {
		xm := p.indexes[i].xm
		start := r.off
		nxm := r.count(uint64(r.u32()), len(r.b), "index Xm length")
		same := nxm == len(xm)
		for k := 0; k < nxm && r.err == nil; k++ {
			if c := r.u32(); same && int(c) != xm[k] {
				same = false
			}
		}
		if r.err == nil && !same {
			r.off = start
			r.fail("index %d is not over Σ's plan's Xm %v", i, xm)
		}
		r.align8()
		for range nshards {
			start := r.off
			t := layoutTable(r)
			if r.err != nil {
				return views
			}
			views = append(views, tableView{t, start})
		}
	}
	return views
}

// layoutTable views the next shard table in place: a power-of-two slot
// count with an empty slot for probe termination, the slot and id arrays the
// header's counts size. validateTable checks the rest. On failure r.err is
// set and the result unusable.
func layoutTable(r *areader) table {
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
	return table{slots: slots, mask: uint64(nslots - 1), ids: ids, nkeys: nkeys}
}

// validateTable finishes the validation of t, shard s of nshards, laid out at
// offset start of the image: every key routed to this shard (a probe looks
// nowhere else), spans inside the id array, key and id counts matching the
// header, ids in [0, n) and ascending per bucket. bucket, when not nil, is
// called with each bucket once its ids have passed.
func validateTable(t table, start, n, s, nshards int, bucket func(h uint64, ids []int)) error {
	fail := func(format string, args ...any) error {
		return &SnapshotError{Section: "indexes", Offset: start, Msg: fmt.Sprintf(format, args...)}
	}
	nids := len(t.ids)
	occupied, span := 0, 0
	for slot := 0; 2*slot < len(t.slots); slot++ {
		packed := t.slots[2*slot+1]
		if packed == 0 {
			continue
		}
		occupied++
		h := t.slots[2*slot]
		if home := keyShard(h, nshards); home != s {
			return fail("key %#x sits in shard %d but routes to shard %d of %d", h, s, home, nshards)
		}
		off, cnt := int(packed>>32), int(packed&0xffffffff)
		if cnt < 1 || off < 0 || off > nids-cnt {
			return fail("bucket span [%d,%d) outside %d ids", off, off+cnt, nids)
		}
		span += cnt
		ids := t.ids[off : off+cnt]
		prev := -1
		for _, id := range ids {
			if id >= n || id <= prev {
				return fail("bucket id %d out of range %d or not ascending", id, n)
			}
			prev = id
		}
		if bucket != nil {
			bucket(h, ids)
		}
	}
	if occupied != t.nkeys || span != nids {
		return fail("table holds %d keys/%d ids, header says %d/%d", occupied, span, t.nkeys, nids)
	}
	return nil
}

// loadShard validates shard s's table as the image lays it out (v) and makes
// it the shard's, with the exception table (uniform.go) derived in the same
// walk from rows, the image's in place: nothing for an index that tracks no
// rhs column or a table of single-tuple buckets.
func (idx index) loadShard(s int, v tableView, rows *rowVec) error {
	var exc exceptions
	var derive func(h uint64, ids []int)
	if len(idx.bms) > 0 && v.t.nkeys != len(v.t.ids) {
		derive = func(h uint64, ids []int) {
			if m := idx.bucketMask(idList{span: [1][]int{ids}}, rows, collided); m != 0 {
				exc = append(exc, exception{h, m})
			}
		}
	}
	if err := validateTable(v.t, v.start, rows.Len(), s, len(idx.shards), derive); err != nil {
		return err
	}
	idx.shards[s] = indexShard{layered{frozen: v.t}, exc.sorted()}
	return nil
}
