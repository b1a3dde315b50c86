package authtree

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/relation"
)

// fuzzTree is the known-good world every fuzz input attacks: a small tree
// and the tuples it commits. The first content is held twice, so its leaf
// is spelled out; the others' leaves are elided.
func fuzzTree() (*Tree, []relation.Tuple) {
	tuples := []relation.Tuple{
		{relation.String("x"), relation.Int(1), relation.String("y")},
		{relation.String("y"), relation.Int(2), relation.String("")},
		{relation.Null, relation.Int(3), relation.String("z")},
		{relation.String("x"), relation.Int(1), relation.String("y")}, // duplicate
		{relation.String("w"), relation.Int(7), relation.String("q")},
	}
	tr := New()
	for _, tu := range tuples {
		tr = tr.Insert(tu)
	}
	return tr, tuples
}

// fuzzProof proves tu in tr and returns the proof with its binary layout.
func fuzzProof(tr *Tree, tu relation.Tuple) (*Proof, []byte) {
	p, ok := tr.Prove(tu)
	if !ok {
		panic("fuzz fixture: Prove failed")
	}
	return p, p.appendBinary(nil)
}

// FuzzProofVerify feeds hostile proofs — the binary layout a proof's JSON
// string carries — and mutated roots to VerifyInclusion: it must never
// panic, and it may only accept when the decoded proof is the genuine one
// under the genuine root — anything else accepted would be a forged
// inclusion.
func FuzzProofVerify(f *testing.F) {
	tr, tuples := fuzzTree()
	root, target := tr.Root(), tuples[0]
	genuine, raw := fuzzProof(tr, target)
	f.Add(raw, []byte{0})
	f.Add(raw, root[:])
	f.Add(make([]byte, 10), []byte{1, 2, 3}) // key 0, elided leaf, no spine
	f.Add([]byte{}, []byte{})
	// The elided leaf spelled out, under a spine of one empty subtree sent
	// as a present sibling: two spellings the decoder refuses.
	spelled := append(bytes.Repeat([]byte{0xff}, 8), 1)
	spelled = append(append(spelled, make([]byte, 32)...), 1, 1, 1)
	f.Add(append(spelled, make([]byte, 32)...), root[:8])

	f.Fuzz(func(t *testing.T, proofBin, rootSeed []byte) {
		var p Proof
		if err := p.decode(proofBin); err != nil {
			return
		}
		fuzzedRoot := root
		for i, b := range rootSeed {
			if i >= len(fuzzedRoot) {
				break
			}
			fuzzedRoot[i] ^= b
		}
		if err := VerifyInclusion(fuzzedRoot, target, &p); err != nil {
			return
		}
		// Accepted: this must be the genuine (root, proof) pair. Any other
		// accepted combination is a break of the commitment.
		if fuzzedRoot != root {
			t.Fatalf("forged root accepted: %v", fuzzedRoot)
		}
		if !sameProof(&p, genuine) {
			t.Fatalf("forged proof accepted: %+v", p)
		}
	})
}

// FuzzProofCodec throws arbitrary bytes at the proof decoder, bare and as
// the base64 JSON string: it must never panic, the two must agree, and a
// proof that decodes re-encodes to exactly the bytes it came from — the
// layout has one spelling per proof.
func FuzzProofCodec(f *testing.F) {
	tr, tuples := fuzzTree()
	for _, tu := range tuples[:3] {
		_, raw := fuzzProof(tr, tu)
		f.Add(raw)
	}
	f.Add([]byte{})
	f.Add(make([]byte, 10))
	deep := New().insertHashed(0, Hash{1}).insertHashed(1, Hash{2})
	p, ok := deep.proveHashed(0, Hash{1})
	if !ok {
		f.Fatal("deep spine: proveHashed failed")
	}
	f.Add(p.appendBinary(nil))

	f.Fuzz(func(t *testing.T, data []byte) {
		var p, q Proof
		err := p.decode(data)
		wire, merr := json.Marshal(data) // the base64 string of data
		if merr != nil {
			t.Fatal(merr)
		}
		if jerr := json.Unmarshal(wire, &q); (err == nil) != (jerr == nil) {
			t.Fatalf("binary decode: %v, JSON decode: %v", err, jerr)
		}
		if err != nil {
			return
		}
		if !sameProof(&p, &q) {
			t.Fatalf("binary decode %+v, JSON decode %+v", p, q)
		}
		if again := p.appendBinary(nil); !bytes.Equal(again, data) {
			t.Fatalf("decoded %x, re-encoded %x", data, again)
		}
		if again, err := json.Marshal(p); err != nil || !bytes.Equal(again, wire) {
			t.Fatalf("JSON re-encoding %s (%v), decoded from %s", again, err, wire)
		}
	})
}
