package master

// FuzzLoadArena throws arbitrary bytes at the arena decoder: whatever the
// input, LoadArenaBytes must either fail with an error matching
// ErrBadSnapshot or return a snapshot that is safe to probe and derive from —
// never panic, never index out of range, never read past the input. Every
// input is re-sealed first (resealArena), so a mutation gets past the
// checksum and on to the header, table and rule validators behind it. The
// seed corpus covers the empty input, a valid image at P = 2 and at P = 1, a
// truncated image, header-level corruptions, one input per validator of the
// symbol and rows sections, an image that loads with a row its indexes file
// under another key, and the images of another layout (misrouted keys,
// indexes out of the plan's order, version 6).

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"repro/internal/pattern"
	"repro/internal/relation"
	"repro/internal/rule"
)

// fuzzArenaSigma is the fixed (Σ, Dm) the fuzz inputs are decoded
// against: FuzzApplyDelta's instance, plus a rule whose pattern sits on its
// lhs, so that its support count is not |Dm| (the two rows with MB = x fail
// it).
func fuzzArenaSigma() (*rule.Set, *Data) {
	r := relation.StringSchema("R", "A", "B", "C")
	rm := relation.StringSchema("Rm", "MA", "MB", "MC")
	ru1 := rule.MustNew("kv", r, rm, []int{0}, []int{0}, 1, 1, pattern.Empty())
	ru2 := rule.MustNew("pair", r, rm, []int{0, 1}, []int{0, 1}, 2, 2,
		pattern.MustTuple([]int{2}, []pattern.Cell{pattern.Neq(relation.String("x"))}))
	ru3 := rule.MustNew("pair-b", r, rm, []int{0, 1}, []int{0, 1}, 2, 2,
		pattern.MustTuple([]int{1}, []pattern.Cell{pattern.Neq(relation.String("x"))}))
	sigma := rule.MustNewSet(r, rm, ru1, ru2, ru3)
	rel := relation.NewRelation(rm)
	pool := []string{"a", "b", "c", "x"}
	for i := 0; i < 8; i++ {
		rel.MustAppend(relation.StringTuple(pool[i%4], pool[(i/2)%4], pool[(i/3)%4]))
	}
	return sigma, MustNewForRules(rel, sigma, WithShards(2))
}

func FuzzLoadArena(f *testing.F) {
	sigma, d := fuzzArenaSigma()
	var buf bytes.Buffer
	if err := d.SaveArena(&buf, sigma); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()

	f.Add([]byte{})
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:arenaHeaderSize])
	truncHdr := append([]byte(nil), valid[:arenaHeaderSize-1]...)
	f.Add(truncHdr)
	badShards := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(badShards[hdrNShards:], MaxShards+7)
	f.Add(badShards)
	badOffset := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint64(badOffset[hdrSections+8*secRows:], uint64(len(valid)*2))
	f.Add(badOffset)
	f.Add(swapFirstIndexShards(valid)) // valid tables, keys in the wrong shard
	f.Add(swapFirstIndexes(valid))     // valid indexes, not in the plan's order
	sec := func(i int) int { return int(binary.LittleEndian.Uint64(valid[hdrSections+8*i:])) }
	nsyms := binary.LittleEndian.Uint32(valid[hdrNSyms:])
	cell := func(i, c int) int { return sec(secRows) + 4*(3*i+c) }
	for _, mut := range []func(b []byte){
		func(b []byte) { binary.LittleEndian.PutUint32(b[sec(secRows):], nsyms) }, // a cell id past the symbols
		func(b []byte) { copy(b[cell(4, 1):cell(4, 2)], b[cell(4, 2):]) },         // row 4 reads (a, b, b), the indexes still file it under (a, c)
		func(b []byte) { b[sec(secSymbols)] = 0x07 },                              // an unknown cell kind
		func(b []byte) { b[sec(secSymbols)+1] = 0x7f },                            // the first symbol, "a", claims 127 bytes
		func(b []byte) { binary.LittleEndian.PutUint32(b[hdrNSyms:], nsyms-1) },   // one cell more than the header's count
		func(b []byte) { binary.LittleEndian.PutUint32(b[hdrVersion:], 6) },       // the previous format
	} {
		b := append([]byte(nil), valid...)
		mut(b)
		f.Add(b)
	}
	var p1 bytes.Buffer
	if err := MustNewForRules(d.Relation(), sigma, WithShards(1)).SaveArena(&p1, sigma); err != nil {
		f.Fatal(err)
	}
	f.Add(p1.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		// A copy: the loaded snapshot retains its input, and resealing
		// writes to it.
		data = bytes.Clone(data[:min(len(data), 1<<16)])
		resealArena(data)
		loaded, err := LoadArenaBytes(data, sigma)
		if err != nil {
			if !errors.Is(err, ErrBadSnapshot) {
				t.Fatalf("error %v does not match ErrBadSnapshot", err)
			}
			var se *SnapshotError
			if !errors.As(err, &se) {
				t.Fatalf("error %v is not a *SnapshotError", err)
			}
			return
		}
		// The image decoded: everything reachable from it must be safe.
		// (A mutated image can still be VALID — e.g. flips confined to
		// padding or unreferenced bucket keys.) What the loader derives from
		// the rows — the support counts condition (c) reads when no lhs cell
		// is validated — must be what a scan of the loaded rows says. The
		// index-backed walks are only probed: the loader does not check that
		// a bucket's ids carry its key, so on an image whose rows and
		// indexes disagree (a flipped in-range cell id) they answer from
		// the indexes and a scan from the rows.
		_ = loaded.MemStats()
		none := relation.NewAttrSet()
		for _, ru := range sigma.Rules() {
			for _, probe := range []relation.Tuple{relation.StringTuple("a", "b", "c"), relation.StringTuple("c", "x", "a")} {
				_ = loaded.MatchIDs(ru, probe)
				_ = rhsValues(loaded, ru, probe)
				_ = loaded.CompatibleExists(ru, probe, relation.NewAttrSet(0))
				_ = loaded.CompatibleExists(ru, probe, relation.NewAttrSet(0, 1))
				if got, want := loaded.CompatibleExists(ru, probe, none), loaded.compatibleScan(ru, probe, none); got != want {
					t.Fatalf("rule %s probe %v Z=∅: CompatibleExists=%v, the scan %v", ru.Name(), probe, got, want)
				}
			}
			want := false
			for _, row := range loaded.rows.All() {
				if patternCompatible(ru, row, loaded.syms) {
					want = true
					break
				}
			}
			if got := loaded.PatternSupported(ru); got != want {
				t.Fatalf("rule %s: PatternSupported=%v, the scan %v", ru.Name(), got, want)
			}
		}
		next, derr := loaded.ApplyDelta([]relation.Tuple{relation.StringTuple("q", "r", "s")}, nil)
		if derr != nil {
			t.Fatalf("ApplyDelta on loaded snapshot: %v", derr)
		}
		_ = next.MemStats()
	})
}
