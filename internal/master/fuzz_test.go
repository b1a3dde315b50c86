package master

import (
	"math/rand"
	"testing"

	"repro/internal/pattern"
	"repro/internal/relation"
	"repro/internal/rule"
)

// FuzzApplyDelta interprets the fuzz input as a delta program against a
// fixed (Σ, Dm) — each byte encodes one add (value pair drawn from a
// small pool, so buckets grow skewed) or one delete (id modulo the
// current size), with high bits batching ops into one ApplyDelta call —
// and checks every published snapshot against the from-scratch rebuild
// oracle plus a probe cross-check. One rule's pattern sits on its lhs, so
// a support count moves only when the row satisfies it. The seed corpus
// covers add-only, delete-only, interleaved and churn-heavy programs.
func FuzzApplyDelta(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x01, 0x02, 0x03})             // adds
	f.Add([]byte{0x80, 0x81, 0x82})                   // deletes
	f.Add([]byte{0x00, 0x80, 0x01, 0x81, 0x02, 0x82}) // interleaved
	f.Add([]byte{0x40, 0xc0, 0x41, 0xc1, 0x42, 0xc2}) // batched mixed
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80})
	f.Fuzz(func(t *testing.T, program []byte) {
		if len(program) > 64 {
			program = program[:64] // keep the per-input oracle cost bounded
		}
		r := relation.StringSchema("R", "A", "B", "C")
		rm := relation.StringSchema("Rm", "MA", "MB", "MC")
		ru1 := rule.MustNew("kv", r, rm, []int{0}, []int{0}, 1, 1, pattern.Empty())
		ru2 := rule.MustNew("pair", r, rm, []int{0, 1}, []int{0, 1}, 2, 2,
			pattern.MustTuple([]int{2}, []pattern.Cell{pattern.Neq(relation.String("x"))}))
		// pair-b carries its pattern on its lhs (B ≠ c, a pool value), so
		// an add or delete moves its support count by the row's MB and the
		// walks of CompatibleExists filter its bucket by pattern.
		ru3 := rule.MustNew("pair-b", r, rm, []int{0, 1}, []int{0, 1}, 2, 2,
			pattern.MustTuple([]int{1}, []pattern.Cell{pattern.Neq(relation.String("c"))}))
		sigma := rule.MustNewSet(r, rm, ru1, ru2, ru3)

		pool := []string{"a", "a", "b", "c"} // skewed: drifts lists across |Dm|/2
		mkTuple := func(b byte) relation.Tuple {
			return relation.StringTuple(pool[int(b)%len(pool)], pool[int(b>>2)%len(pool)], pool[int(b>>4)%len(pool)])
		}

		rel := relation.NewRelation(rm)
		for i := 0; i < 6; i++ {
			rel.MustAppend(mkTuple(byte(i * 37)))
		}
		cur := MustNewForRules(rel, sigma)
		shadow := tuplesOf(rel)

		var adds []relation.Tuple
		var deletes []int
		delSeen := map[int]bool{}
		flush := func(step int) {
			if len(adds) == 0 && len(deletes) == 0 {
				return
			}
			next, err := cur.ApplyDelta(adds, deletes)
			if err != nil {
				t.Fatalf("step %d: ApplyDelta(+%d,-%d): %v", step, len(adds), len(deletes), err)
			}
			shadow = shadowApply(shadow, adds, deletes)
			if next.Len() != len(shadow) {
				t.Fatalf("step %d: snapshot length %d, shadow %d", step, next.Len(), len(shadow))
			}
			for i, tm := range shadow {
				if !next.Tuple(i).Equal(tm) {
					t.Fatalf("step %d: tuple %d = %v, shadow %v", step, i, next.Tuple(i), tm)
				}
			}
			checkEquiv(t, "fuzz step", next, sigma)
			cur = next
			adds, deletes = nil, nil
			delSeen = map[int]bool{}
		}

		for step, op := range program {
			if op&0x80 == 0 {
				adds = append(adds, mkTuple(op))
			} else if n := cur.Len() - len(deletes); n > 0 {
				id := int(op&0x3f) % cur.Len()
				if !delSeen[id] && id < cur.Len() {
					delSeen[id] = true
					deletes = append(deletes, id)
				}
			}
			if op&0x40 == 0 { // low bit 6 clear: publish the batch now
				flush(step)
			}
		}
		flush(len(program))

		// Probe cross-check on the final snapshot: index path vs scan.
		rng := rand.New(rand.NewSource(int64(len(program))))
		probe := make(relation.Tuple, 3)
		for trial := 0; trial < 8; trial++ {
			for i := range probe {
				probe[i] = relation.String(pool[rng.Intn(len(pool))])
			}
			zSet := relation.NewAttrSet(rng.Perm(3)[:rng.Intn(4)]...)
			for _, ru := range sigma.Rules() {
				if got, want := cur.CompatibleExists(ru, probe, zSet), cur.compatibleScan(ru, probe, zSet); got != want {
					t.Fatalf("rule %s: CompatibleExists=%v scan=%v (z=%v)", ru.Name(), got, want, zSet.Positions())
				}
			}
		}
	})
}
