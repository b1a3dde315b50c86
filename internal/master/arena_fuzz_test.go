package master

// FuzzLoadArena throws arbitrary bytes at the arena decoder: whatever the
// input, LoadArenaBytes must either fail with an error matching
// ErrBadSnapshot or return a snapshot that is safe to probe and derive from —
// never panic, never index out of range, never read past the input. Every
// input is re-sealed first (resealArena), so a mutation gets past the
// checksum and on to the header, table and rule validators behind it. The
// seed corpus covers the empty input, a valid image at P = 2 and at P = 1, a
// truncated image, header-level corruptions, and the images of another
// layout (misrouted keys, versions 3 and 5).

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
// against, mirroring FuzzApplyDelta's instance.
func fuzzArenaSigma() (*rule.Set, *Data) {
	r := relation.StringSchema("R", "A", "B", "C")
	rm := relation.StringSchema("Rm", "MA", "MB", "MC")
	ru1 := rule.MustNew("kv", r, rm, []int{0}, []int{0}, 1, 1, pattern.Empty())
	ru2 := rule.MustNew("pair", r, rm, []int{0, 1}, []int{0, 1}, 2, 2,
		pattern.MustTuple([]int{2}, []pattern.Cell{pattern.Neq(relation.String("x"))}))
	sigma := rule.MustNewSet(r, rm, ru1, ru2)
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
	binary.LittleEndian.PutUint64(badOffset[hdrSections+8*secColumns:], uint64(len(valid)*2))
	f.Add(badOffset)
	f.Add(swapFirstIndexShards(valid)) // valid tables, keys in the wrong shard
	for _, version := range []uint32{3, 5} {
		old := append([]byte(nil), valid...)
		binary.LittleEndian.PutUint32(old[hdrVersion:], version)
		f.Add(old)
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
		// padding or unreferenced bucket keys.)
		_ = loaded.MemStats()
		probe := relation.StringTuple("a", "b", "c")
		for _, ru := range sigma.Rules() {
			_ = loaded.MatchIDs(ru, probe)
			_ = loaded.RHSValues(ru, probe)
			_ = loaded.CompatibleExists(ru, probe, relation.NewAttrSet(0))
			_ = loaded.PatternSupported(ru)
		}
		next, derr := loaded.ApplyDelta([]relation.Tuple{relation.StringTuple("q", "r", "s")}, nil)
		if derr != nil {
			t.Fatalf("ApplyDelta on loaded snapshot: %v", derr)
		}
		_ = next.MemStats()
	})
}
