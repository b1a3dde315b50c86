package master

// Arena round-trip and corruption tests: a saved snapshot must load back
// deep-equal (checkEquiv, the same oracle the delta chain is held to) and
// probe-identical to the original, saving must be deterministic, and a
// corrupt or truncated image must fail with a typed *SnapshotError —
// never a panic and never an out-of-range read. A mutation meant for a
// validator behind the checksum re-seals the trailer (resealArena) so it
// reaches that validator.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/relation"
	"repro/internal/rule"
)

func saveArenaBytes(t testing.TB, d *Data, sigma *rule.Set) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := d.SaveArena(&buf, sigma); err != nil {
		t.Fatalf("SaveArena: %v", err)
	}
	return buf.Bytes()
}

// resealArena rewrites a mutated image's trailer to the checksum of its
// bytes, as if SaveArena had written them.
func resealArena(img []byte) {
	if body := len(img) - arenaTrailerSize; body >= 0 {
		binary.LittleEndian.PutUint32(img[body:], crc32.Checksum(img[:body], arenaCRC))
	}
}

func loadArenaOrFatal(t testing.TB, img []byte, sigma *rule.Set) *Data {
	t.Helper()
	d, err := LoadArenaBytes(img, sigma)
	if err != nil {
		t.Fatalf("LoadArenaBytes: %v", err)
	}
	return d
}

// checkProbesAgree fires random probes at both snapshots and requires
// byte-identical answers across every public lookup path.
func checkProbesAgree(t testing.TB, ctx string, a, b *Data, sigma *rule.Set, vals []string, trials int) {
	t.Helper()
	rng := rand.New(rand.NewSource(9_000_001))
	probe := make(relation.Tuple, sigma.Schema().Arity())
	for trial := 0; trial < trials; trial++ {
		for i := range probe {
			probe[i] = relation.String(vals[rng.Intn(len(vals))])
		}
		zSet := relation.NewAttrSet(rng.Perm(len(probe))[:rng.Intn(len(probe)+1)]...)
		for _, ru := range sigma.Rules() {
			if ga, gb := a.MatchIDs(ru, probe), b.MatchIDs(ru, probe); !eqInts(ga, gb) {
				t.Fatalf("%s: rule %s MatchIDs %v vs %v", ctx, ru.Name(), ga, gb)
			}
			va, wa := a.AppendRHSValues(nil, ru, probe)
			vb, wb := b.AppendRHSValues(nil, ru, probe)
			if wa != wb {
				t.Fatalf("%s: rule %s witness %d vs %d", ctx, ru.Name(), wa, wb)
			}
			if len(va) != len(vb) {
				t.Fatalf("%s: rule %s AppendRHSValues %v vs %v", ctx, ru.Name(), va, vb)
			}
			for i := range va {
				if !va[i].Equal(vb[i]) {
					t.Fatalf("%s: rule %s AppendRHSValues %v vs %v", ctx, ru.Name(), va, vb)
				}
			}
			if ga, gb := a.CompatibleExists(ru, probe, zSet), b.CompatibleExists(ru, probe, zSet); ga != gb {
				t.Fatalf("%s: rule %s CompatibleExists %v vs %v (z=%v)", ctx, ru.Name(), ga, gb, zSet.Positions())
			}
			if ga, gb := a.PatternSupported(ru), b.PatternSupported(ru); ga != gb {
				t.Fatalf("%s: rule %s PatternSupported %v vs %v", ctx, ru.Name(), ga, gb)
			}
		}
	}
}

// TestArenaRoundTrip saves randomized (Σ, Dm) instances — some taken a few
// deltas deep first, so overlays are frozen too — and checks the loaded
// snapshot against the rebuild oracle and the original's probe answers.
func TestArenaRoundTrip(t *testing.T) {
	for seed := 0; seed < 40; seed++ {
		rng := rand.New(rand.NewSource(int64(51_000_000 + seed)))
		d, sigma, rm, vals := randomDeltaInstance(rng)
		for step := 0; step < rng.Intn(4); step++ {
			adds, deletes := randomDelta(rng, d.Len(), rm.Arity(), vals)
			next, err := d.ApplyDelta(adds, deletes)
			if err != nil {
				t.Fatalf("seed %d: ApplyDelta: %v", seed, err)
			}
			d = next
		}
		ctx := fmt.Sprintf("seed %d", seed)
		img := saveArenaBytes(t, d, sigma)
		loaded := loadArenaOrFatal(t, img, sigma)
		if loaded.Epoch() != d.Epoch() || loaded.Len() != d.Len() || loaded.nshards != d.nshards {
			t.Fatalf("%s: loaded epoch/len/shards %d/%d/%d, want %d/%d/%d", ctx,
				loaded.Epoch(), loaded.Len(), loaded.nshards, d.Epoch(), d.Len(), d.nshards)
		}
		for i := 0; i < d.Len(); i++ {
			if !loaded.Tuple(i).Equal(d.Tuple(i)) {
				t.Fatalf("%s: tuple %d = %v, want %v", ctx, i, loaded.Tuple(i), d.Tuple(i))
			}
		}
		checkEquiv(t, ctx, loaded, sigma)
		checkProbesAgree(t, ctx, d, loaded, sigma, vals, 16)
		ms := loaded.MemStats()
		if !ms.ArenaBacked || ms.ArenaBytes != int64(len(img)) {
			t.Fatalf("%s: MemStats arena accounting = %+v", ctx, ms)
		}
		if hs := d.MemStats(); hs.ArenaBacked {
			t.Fatalf("%s: heap-built snapshot reports arena backing", ctx)
		}
	}
}

// TestArenaSaveDeterministic pins the byte-level determinism the CI
// equality gates rely on: same snapshot → same image, and an image
// re-saved after loading is identical to itself.
func TestArenaSaveDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(52_000_000))
	d, sigma, _, _ := randomDeltaInstance(rng)
	img1 := saveArenaBytes(t, d, sigma)
	img2 := saveArenaBytes(t, d, sigma)
	if !bytes.Equal(img1, img2) {
		t.Fatal("two saves of the same snapshot differ")
	}
	loaded := loadArenaOrFatal(t, img1, sigma)
	img3 := saveArenaBytes(t, loaded, sigma)
	if !bytes.Equal(img1, img3) {
		t.Fatal("save → load → save is not a fixed point")
	}
}

// TestArenaFileRoundTrip exercises the file path — SaveArenaFile's
// temp+rename and LoadArena's mmap (with its read fallback on platforms
// without one) — on the paper-example master at a few shard counts.
func TestArenaFileRoundTrip(t *testing.T) {
	rel, sigma := benchMasterRelation(500)
	for _, shards := range []int{1, 4} {
		d := MustNewForRules(rel, sigma, WithShards(shards))
		path := filepath.Join(t.TempDir(), "master.arena")
		if err := d.SaveArenaFile(path, sigma); err != nil {
			t.Fatalf("SaveArenaFile: %v", err)
		}
		loaded, err := LoadArena(path, sigma)
		if err != nil {
			t.Fatalf("LoadArena: %v", err)
		}
		ctx := fmt.Sprintf("shards=%d", shards)
		checkEquiv(t, ctx, loaded, sigma)
		// Probe with real projections: every master zip must find its
		// tuple through the loaded index, identically to the heap build.
		ru := sigma.Rules()[0]
		probe := make(relation.Tuple, sigma.Schema().Arity())
		for i := range probe {
			probe[i] = relation.String("x")
		}
		for i := 0; i < rel.Len(); i += 7 {
			probe[7] = rel.Tuple(i)[7]
			if ga, gb := d.MatchIDs(ru, probe), loaded.MatchIDs(ru, probe); !eqInts(ga, gb) {
				t.Fatalf("%s: MatchIDs for zip %v: %v vs %v", ctx, probe[7], ga, gb)
			}
		}
		ms := loaded.MemStats()
		if !ms.ArenaBacked {
			t.Fatalf("%s: loaded snapshot not arena-backed: %+v", ctx, ms)
		}
		// One layout: a fresh build and its loaded image hold tables of the
		// same content and the same size.
		hs := d.MemStats()
		if hs.IndexKeys != ms.IndexKeys || hs.IndexIDs != ms.IndexIDs || hs.IndexBytes != ms.IndexBytes {
			t.Fatalf("%s: MemStats differ between the heap build %+v and its loaded image %+v", ctx, hs, ms)
		}
		if hs.IndexBytes < 16*int64(hs.IndexKeys)+8*int64(hs.IndexIDs) {
			t.Fatalf("%s: table bytes below their own payload: %+v", ctx, hs)
		}
	}
}

// TestArenaSigmaMismatch: an image saved for one Σ must be refused for a
// different Σ (extra rule, different pattern, different schema) with a
// typed error, not loaded into a wrong plan.
func TestArenaSigmaMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(53_000_000))
	d, sigma, _, _ := randomDeltaInstance(rng)
	img := saveArenaBytes(t, d, sigma)

	// A Σ with one rule dropped: rule-count mismatch.
	if sigma.Len() > 1 {
		sub := rule.MustNewSet(sigma.Schema(), sigma.MasterSchema(), sigma.Rules()[:sigma.Len()-1]...)
		if _, err := LoadArenaBytes(img, sub); !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("fewer rules: got %v, want ErrBadSnapshot", err)
		}
	}

	// A master built for an empty Σ has none of Σ's plan's indexes to save.
	empty := rule.MustNewSet(sigma.Schema(), sigma.MasterSchema())
	if err := MustNewForRules(d.Relation(), empty).SaveArena(io.Discard, sigma); err == nil {
		t.Fatal("a master built for an empty Σ saved as an image for Σ")
	}

	// A Σ over a different master schema.
	other := relation.StringSchema("Other", "Q1", "Q2", "Q3")
	osig := rule.MustNewSet(sigma.Schema(), other)
	if _, err := LoadArenaBytes(img, osig); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("different schema: got %v, want ErrBadSnapshot", err)
	}
}

// corruptCase is one targeted mutation of a valid image.
type corruptCase struct {
	name string
	mut  func(img []byte)
}

func arenaCorruptionCases(img []byte) []corruptCase {
	secOff := func(i int) int {
		return int(binary.LittleEndian.Uint64(img[hdrSections+8*i:]))
	}
	return []corruptCase{
		{"bad magic", func(b []byte) { b[0] = 'X' }},
		{"bad version", func(b []byte) { binary.LittleEndian.PutUint32(b[hdrVersion:], 99) }},
		{"older version", func(b []byte) { binary.LittleEndian.PutUint32(b[hdrVersion:], arenaVersion-1) }},
		{"newer version", func(b []byte) { binary.LittleEndian.PutUint32(b[hdrVersion:], arenaVersion+1) }},
		{"bad endian marker", func(b []byte) { binary.LittleEndian.PutUint32(b[hdrEndian:], 0x04030201) }},
		{"zero shards", func(b []byte) { binary.LittleEndian.PutUint32(b[hdrNShards:], 0) }},
		{"shard count over limit", func(b []byte) { binary.LittleEndian.PutUint32(b[hdrNShards:], MaxShards+1) }},
		{"wrong shard count", func(b []byte) {
			// One more shard than the tables were written for: the index
			// decoder must fail on counts/bounds, never read past the file.
			n := binary.LittleEndian.Uint32(b[hdrNShards:])
			binary.LittleEndian.PutUint32(b[hdrNShards:], n+1)
		}},
		{"tuple count over int32", func(b []byte) { binary.LittleEndian.PutUint64(b[hdrNTuples:], 1<<33) }},
		{"symbol count off the records", func(b []byte) {
			// The section holds one cell more than the header claims: every
			// stored value is a symbol, so the two counts must agree.
			n := binary.LittleEndian.Uint32(b[hdrNSyms:])
			binary.LittleEndian.PutUint32(b[hdrNSyms:], n-1)
		}},
		{"file size mismatch", func(b []byte) { binary.LittleEndian.PutUint64(b[hdrFileSize:], uint64(len(b)+8)) }},
		{"section offset past EOF", func(b []byte) {
			binary.LittleEndian.PutUint64(b[hdrSections+8*secRows:], uint64(len(b)+8))
		}},
		{"section offset misaligned", func(b []byte) {
			binary.LittleEndian.PutUint64(b[hdrSections+8*secIndexes:], uint64(secOff(secIndexes)+4))
		}},
		{"section offsets out of order", func(b []byte) {
			binary.LittleEndian.PutUint64(b[hdrSections+8*secSymbols:], uint64(secOff(secRows)+8))
		}},
		{"column id out of range", func(b []byte) {
			binary.LittleEndian.PutUint32(b[secOff(secRows):], 0xffffffff)
		}},
		{"bucket table corrupt", func(b []byte) {
			// Stomp the first index's first shard header: slot count loses
			// its power-of-two-ness (or the table its bounds) either way.
			off := secOff(secIndexes)
			nxm := int(binary.LittleEndian.Uint32(b[off:]))
			hdr := off + 4 + 4*nxm
			hdr += (8 - hdr%8) % 8
			binary.LittleEndian.PutUint64(b[hdr:], 3)
		}},
		{"rule signature corrupt", func(b []byte) {
			// The image names the first rule by another signature: saved for
			// a different Σ.
			b[secOff(secRules)] ^= 0xff
		}},
	}
}

// swapFirstIndexShards returns a re-sealed copy of a P ≥ 2 image with the
// first two shard tables of its first index exchanged: every table is still
// valid by itself and every count still adds up, but the keys now sit in
// shards they do not route to — where no probe would look for them.
func swapFirstIndexShards(img []byte) []byte {
	off := int(binary.LittleEndian.Uint64(img[hdrSections+8*secIndexes:]))
	off += 4 + 4*int(binary.LittleEndian.Uint32(img[off:])) // the Xm list
	off += (8 - off%8) % 8
	tableLen := func(at int) int {
		nslots := int(binary.LittleEndian.Uint64(img[at:]))
		nids := int(binary.LittleEndian.Uint64(img[at+16:]))
		return 24 + 16*nslots + 8*nids // 8-byte ids: already a multiple of 8
	}
	l0 := tableLen(off)
	l1 := tableLen(off + l0)
	out := append([]byte(nil), img[:off]...)
	out = append(out, img[off+l0:off+l0+l1]...)
	out = append(out, img[off:off+l0]...)
	out = append(out, img[off+l0+l1:]...)
	resealArena(out)
	return out
}

// arenaIndexSpans returns the byte range of each index in the image's
// index section: its Xm list, padding and shard tables. Every index starts
// and ends 8-aligned, so the ranges can be cut out or exchanged as they are.
func arenaIndexSpans(img []byte) [][2]int {
	nshards := int(binary.LittleEndian.Uint32(img[hdrNShards:]))
	off := int(binary.LittleEndian.Uint64(img[hdrSections+8*secIndexes:]))
	spans := make([][2]int, binary.LittleEndian.Uint32(img[hdrNIndexes:]))
	for i := range spans {
		start := off
		off += 4 + 4*int(binary.LittleEndian.Uint32(img[off:]))
		off += (8 - off%8) % 8
		for range nshards {
			nslots := int(binary.LittleEndian.Uint64(img[off:]))
			nids := int(binary.LittleEndian.Uint64(img[off+16:]))
			off += 24 + 16*nslots + 8*nids
		}
		spans[i] = [2]int{start, off}
	}
	return spans
}

// swapFirstIndexes returns a re-sealed copy of the image with its first two
// indexes exchanged: each is still valid by itself and every offset still
// adds up, but the list is no longer in the order of Σ's plan.
func swapFirstIndexes(img []byte) []byte {
	sp := arenaIndexSpans(img)
	out := append([]byte(nil), img[:sp[0][0]]...)
	out = append(out, img[sp[1][0]:sp[1][1]]...)
	out = append(out, img[sp[0][0]:sp[0][1]]...)
	out = append(out, img[sp[1][1]:]...)
	resealArena(out)
	return out
}

// dropLastIndex returns a re-sealed copy of the image without its last
// index, the header's index count, later section offsets and file size
// adjusted to match.
func dropLastIndex(img []byte) []byte {
	sp := arenaIndexSpans(img)
	last := sp[len(sp)-1]
	cut := last[1] - last[0]
	out := append(append([]byte(nil), img[:last[0]]...), img[last[1]:]...)
	binary.LittleEndian.PutUint32(out[hdrNIndexes:], uint32(len(sp)-1))
	binary.LittleEndian.PutUint64(out[hdrFileSize:], uint64(len(out)))
	for sec := secIndexes + 1; sec < numSections; sec++ {
		at := out[hdrSections+8*sec:]
		binary.LittleEndian.PutUint64(at, binary.LittleEndian.Uint64(at)-uint64(cut))
	}
	resealArena(out)
	return out
}

// TestArenaRejectsOtherLayouts: the loader takes the layout this build
// writes, no other. An image whose keys sit in the wrong shard, one whose
// index list is short or reordered against Σ's plan, and a version-5, -6
// or -8 header all fail typed instead of loading into a master that misses
// matches or rebuilding what the image left out.
func TestArenaRejectsOtherLayouts(t *testing.T) {
	sigma, d := fuzzArenaSigma()
	img := saveArenaBytes(t, d, sigma)
	loadArenaOrFatal(t, img, sigma)

	var se *SnapshotError
	_, err := LoadArenaBytes(swapFirstIndexShards(img), sigma)
	if !errors.Is(err, ErrBadSnapshot) || !errors.As(err, &se) {
		t.Fatalf("misrouted keys: got %v, want a *SnapshotError matching ErrBadSnapshot", err)
	}
	if se.Section != "indexes" || !strings.Contains(se.Msg, "routes to shard") {
		t.Fatalf("misrouted keys: error %v must name the routing check in the indexes section", err)
	}

	// The last index of the plan is the one-column index over MB that only
	// the two-column rule reads: an image without it is refused, not filled.
	_, err = LoadArenaBytes(dropLastIndex(img), sigma)
	if !errors.Is(err, ErrBadSnapshot) || !errors.As(err, &se) || se.Section != "indexes" ||
		!strings.Contains(se.Msg, "snapshot has 2 indexes, Σ's plan has 3") {
		t.Fatalf("missing one-column index: got %v, want a *SnapshotError counting the indexes", err)
	}
	_, err = LoadArenaBytes(swapFirstIndexes(img), sigma)
	if !errors.Is(err, ErrBadSnapshot) || !errors.As(err, &se) || se.Section != "indexes" ||
		!strings.Contains(se.Msg, "index 0 is not over Σ's plan's Xm [0]") {
		t.Fatalf("reordered indexes: got %v, want a *SnapshotError naming the first index", err)
	}

	for _, version := range []uint32{5, 6, 8} {
		other := append([]byte(nil), img...)
		binary.LittleEndian.PutUint32(other[hdrVersion:], version)
		_, err = LoadArenaBytes(other, sigma)
		if !errors.Is(err, ErrBadSnapshot) || !errors.As(err, &se) {
			t.Fatalf("version %d: got %v, want a *SnapshotError matching ErrBadSnapshot", version, err)
		}
		want := fmt.Sprintf("unsupported version %d (want %d)", version, arenaVersion)
		if se.Section != "header" || se.Msg != want {
			t.Fatalf("version %d: error %v, want %q in the header section", version, err, want)
		}
	}
}

// TestArenaCorruption runs the targeted mutations plus every truncation
// length and requires a typed failure each time.
func TestArenaCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(54_000_000))
	d, sigma, _, _ := randomDeltaInstance(rng)
	img := saveArenaBytes(t, d, sigma)

	for _, tc := range arenaCorruptionCases(img) {
		t.Run(tc.name, func(t *testing.T) {
			mut := append([]byte(nil), img...)
			tc.mut(mut)
			resealArena(mut)
			_, err := LoadArenaBytes(mut, sigma)
			if err == nil {
				t.Fatal("corrupt image loaded without error")
			}
			if !errors.Is(err, ErrBadSnapshot) {
				t.Fatalf("error %v does not match ErrBadSnapshot", err)
			}
			var se *SnapshotError
			if !errors.As(err, &se) {
				t.Fatalf("error %v is not a *SnapshotError", err)
			}
		})
	}

	t.Run("every truncation", func(t *testing.T) {
		for l := 0; l < len(img); l++ {
			if _, err := LoadArenaBytes(img[:l:l], sigma); !errors.Is(err, ErrBadSnapshot) {
				t.Fatalf("truncation to %d bytes: got %v, want ErrBadSnapshot", l, err)
			}
		}
	})

	t.Run("random byte flips never panic", func(t *testing.T) {
		// No flip is benign — padding, a bucket key and a tuple's payload
		// are all under the checksum — so every one fails typed.
		frng := rand.New(rand.NewSource(55_000_000))
		for trial := 0; trial < 500; trial++ {
			mut := append([]byte(nil), img...)
			for k := 0; k <= frng.Intn(3); k++ {
				mut[frng.Intn(len(mut))] ^= byte(1 + frng.Intn(255))
			}
			if bytes.Equal(mut, img) {
				continue // two flips of one byte cancelled out
			}
			if _, err := LoadArenaBytes(mut, sigma); !errors.Is(err, ErrBadSnapshot) {
				t.Fatalf("trial %d: got %v, want ErrBadSnapshot", trial, err)
			}
		}
	})
}

// TestArenaUnalignedInput forces the realignment copy: the loader must
// accept an image at an odd address.
func TestArenaUnalignedInput(t *testing.T) {
	rng := rand.New(rand.NewSource(56_000_000))
	d, sigma, _, _ := randomDeltaInstance(rng)
	img := saveArenaBytes(t, d, sigma)
	backing := make([]byte, len(img)+1)
	copy(backing[1:], img)
	loaded, err := LoadArenaBytes(backing[1:], sigma)
	if err != nil {
		t.Fatalf("unaligned load: %v", err)
	}
	checkEquiv(t, "unaligned", loaded, sigma)
}

// TestArenaEmptyMaster: a zero-tuple master round-trips (empty tables,
// zero support counts).
func TestArenaEmptyMaster(t *testing.T) {
	rel, sigma := benchMasterRelation(0)
	d := MustNewForRules(rel, sigma, WithShards(2))
	img := saveArenaBytes(t, d, sigma)
	loaded := loadArenaOrFatal(t, img, sigma)
	if loaded.Len() != 0 {
		t.Fatalf("loaded %d tuples from empty master", loaded.Len())
	}
	checkEquiv(t, "empty", loaded, sigma)
	next, err := loaded.ApplyDelta([]relation.Tuple{benchMasterTuple(rand.New(rand.NewSource(1)), 0)}, nil)
	if err != nil {
		t.Fatalf("ApplyDelta on empty loaded snapshot: %v", err)
	}
	checkEquiv(t, "empty+add", next, sigma)
}
