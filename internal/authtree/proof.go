package authtree

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"slices"

	"repro/internal/relation"
)

// ErrBadProof is the sentinel every proof rejection matches via
// errors.Is: malformed structure, a tuple the proof does not commit, or a
// spine that folds to a different root. Verifiers must treat all three
// identically — a proof either authenticates the tuple under the root or
// it proves nothing.
var ErrBadProof = errors.New("authtree: proof verification failed")

// Proof is an inclusion proof for one tuple: the committed leaf (key plus
// its entry multiset) and the sibling hashes along the spine from the leaf
// back to the root, root-first — Siblings[d] is the hash of the subtree
// branching off at depth d, so the leaf sits at depth len(Siblings).
//
// Entries == nil is the elided leaf: the leaf holds the presented tuple
// alone, once, so its one entry (Sum(t), 1) is left for the verifier to
// recompute. Every other leaf is spelled out; a spelled-out leaf of one
// entry with count 1 is malformed, so each proof has exactly one form.
//
// The JSON form, what fix responses carry, is one base64 string (standard
// alphabet, padded) of this binary layout:
//
//	key       8 bytes, uint64 little-endian
//	n         uvarint: the number of leaf entries; 0 = the elided leaf
//	entries   n × (vhash 32 bytes, count uvarint), vhashes strictly
//	          ascending, every count ≥ 1; never n = 1 with count 1
//	depth     1 byte, ≤ 64: the number of siblings
//	bitmap    ⌈depth/8⌉ bytes: bit d (byte d/8, mask 1<<(d%8)) is set
//	          exactly when sibling d is not 32 zero bytes (an empty
//	          subtree); bits past depth are 0
//	siblings  the non-zero siblings, 32 bytes each, root-first
//
// Uvarints are the minimal LEB128 encoding (7 bits a byte, low group
// first). A decoder rejects any other spelling — a non-minimal uvarint, a
// present sibling of 32 zero bytes, a set bit past depth, bytes after the
// last sibling — so every proof re-encodes to the bytes it came from.
type Proof struct {
	Key      uint64
	Entries  []Entry
	Siblings []Hash
}

// MarshalJSON renders a hash as a 64-char hex string.
func (h Hash) MarshalJSON() ([]byte, error) {
	return append(hex.AppendEncode(append(make([]byte, 0, 2*len(h)+2), '"'), h[:]), '"'), nil
}

// UnmarshalJSON parses the hex form; anything but exactly 32 bytes fails.
func (h *Hash) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	return h.parse(s)
}

// String renders the hash in hex — the wire form of roots in /v1/root,
// /healthz and fix results.
func (h Hash) String() string { return hex.EncodeToString(h[:]) }

// ParseHash parses the hex form produced by String.
func ParseHash(s string) (Hash, error) {
	var h Hash
	if err := h.parse(s); err != nil {
		return Hash{}, err
	}
	return h, nil
}

func (h *Hash) parse(s string) error {
	b, err := hex.DecodeString(s)
	if err != nil {
		return fmt.Errorf("authtree: parse hash: %w", err)
	}
	if len(b) != len(h) {
		return fmt.Errorf("authtree: parse hash: got %d bytes, want %d", len(b), len(h))
	}
	copy(h[:], b)
	return nil
}

// MarshalJSON renders the proof as the base64 string of its binary layout.
// A proof VerifyInclusion would reject as malformed fails to encode.
func (p Proof) MarshalJSON() ([]byte, error) {
	// Room for key, an elided leaf, depth, bitmap and every sibling.
	n := 8 + 1 + 1 + 8 + len(p.Siblings)*len(Hash{})
	return p.AppendJSON(make([]byte, 0, base64.StdEncoding.EncodedLen(n)+2))
}

// AppendJSON appends the proof's JSON form, the quoted base64 string, to
// b. A proof VerifyInclusion would reject as malformed fails to encode.
func (p *Proof) AppendJSON(b []byte) ([]byte, error) {
	if err := p.wellFormed(); err != nil {
		return nil, err
	}
	// A proof at |Dm| = 100k is ~560 bytes: the layout stays on the stack.
	var scratch [1024]byte
	bin := p.appendBinary(scratch[:0])
	return append(base64.StdEncoding.AppendEncode(append(b, '"'), bin), '"'), nil
}

// UnmarshalJSON parses the base64 string MarshalJSON writes; every
// malformed proof matches ErrBadProof.
func (p *Proof) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return fmt.Errorf("%w: %v", ErrBadProof, err)
	}
	bin, err := base64.StdEncoding.Strict().DecodeString(s)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadProof, err)
	}
	return p.decode(bin)
}

// appendBinary appends the layout the Proof comment describes to b. The
// proof must be well-formed.
func (p *Proof) appendBinary(b []byte) []byte {
	b = binary.LittleEndian.AppendUint64(b, p.Key)
	b = binary.AppendUvarint(b, uint64(len(p.Entries)))
	for _, e := range p.Entries {
		b = binary.AppendUvarint(append(b, e.VHash[:]...), e.Count)
	}
	b = append(b, byte(len(p.Siblings)))
	bitmap := len(b)
	b = append(b, make([]byte, (len(p.Siblings)+7)/8)...)
	for d, s := range p.Siblings {
		if s != (Hash{}) {
			b[bitmap+d/8] |= 1 << (d % 8)
			b = append(b, s[:]...)
		}
	}
	return b
}

// decode parses the binary layout into p, accepting exactly the bytes
// appendBinary writes for some well-formed proof.
func (p *Proof) decode(b []byte) error {
	bad := func(what string) error { return fmt.Errorf("%w: %s", ErrBadProof, what) }
	if len(b) < 8 {
		return bad("truncated key")
	}
	q := Proof{Key: binary.LittleEndian.Uint64(b)}
	b = b[8:]
	n, b, ok := uvarint(b)
	if !ok {
		return bad("malformed entry count")
	}
	const minEntry = len(Hash{}) + 1
	if n > uint64(len(b)/minEntry) {
		return bad("entry count exceeds the proof")
	}
	if n > 0 {
		q.Entries = make([]Entry, n)
	}
	for i := range q.Entries {
		if len(b) < len(Hash{}) {
			return bad("truncated entry")
		}
		e := &q.Entries[i]
		copy(e.VHash[:], b)
		if e.Count, b, ok = uvarint(b[len(Hash{}):]); !ok {
			return bad("malformed entry count")
		}
	}
	if len(b) < 1 {
		return bad("truncated depth")
	}
	depth := int(b[0])
	if depth > Depth {
		return fmt.Errorf("%w: %d siblings exceeds key width %d", ErrBadProof, depth, Depth)
	}
	nb := (depth + 7) / 8
	if len(b) < 1+nb {
		return bad("truncated sibling bitmap")
	}
	bitmap := b[1 : 1+nb]
	b = b[1+nb:]
	if depth%8 != 0 && bitmap[len(bitmap)-1]>>(depth%8) != 0 {
		return bad("sibling bitmap bit past depth")
	}
	if depth > 0 {
		q.Siblings = make([]Hash, depth)
	}
	for d := range q.Siblings {
		if bitmap[d/8]&(1<<(d%8)) == 0 {
			continue
		}
		if len(b) < len(Hash{}) {
			return bad("truncated sibling")
		}
		if copy(q.Siblings[d][:], b); q.Siblings[d] == (Hash{}) {
			return bad("present sibling is the empty subtree")
		}
		b = b[len(Hash{}):]
	}
	if len(b) != 0 {
		return bad("trailing bytes")
	}
	if err := q.wellFormed(); err != nil {
		return err
	}
	*p = q
	return nil
}

// uvarint reads one minimal uvarint off the front of b.
func uvarint(b []byte) (uint64, []byte, bool) {
	v, n := binary.Uvarint(b)
	// A longer encoding than needed ends in a zero byte.
	if n <= 0 || (n > 1 && b[n-1] == 0) {
		return 0, b, false
	}
	return v, b[n:], true
}

// wellFormed checks what the binary layout enforces by construction, so a
// proof built in Go has the one spelling a decoded proof has: at most Depth
// siblings, and a leaf that is elided or a canonical entry list — strictly
// vhash-ascending, positive counts, not the elided leaf spelled out — so no
// two lists encode one leaf.
func (p *Proof) wellFormed() error {
	if len(p.Siblings) > Depth {
		return fmt.Errorf("%w: %d siblings exceeds key width %d", ErrBadProof, len(p.Siblings), Depth)
	}
	switch {
	case p.Entries == nil:
		return nil
	case len(p.Entries) == 0:
		return fmt.Errorf("%w: empty leaf", ErrBadProof)
	case len(p.Entries) == 1 && p.Entries[0].Count == 1:
		return fmt.Errorf("%w: a leaf of one tuple must be elided", ErrBadProof)
	}
	for i, e := range p.Entries {
		if e.Count == 0 {
			return fmt.Errorf("%w: zero-count entry", ErrBadProof)
		}
		if i > 0 && bytes.Compare(p.Entries[i-1].VHash[:], e.VHash[:]) >= 0 {
			return fmt.Errorf("%w: entries out of order", ErrBadProof)
		}
	}
	return nil
}

// Prove emits an inclusion proof for the tuple, or false when the tree
// does not commit it (wrong content or never inserted).
func (tr *Tree) Prove(t relation.Tuple) (*Proof, bool) {
	return tr.proveHashed(Key(t), Sum(t))
}

func (tr *Tree) proveHashed(key uint64, vh Hash) (*Proof, bool) {
	if tr == nil {
		return nil, false
	}
	// The spine is collected on the stack and copied once, at its length.
	var siblings [Depth]Hash
	depth := 0
	n := tr.root
	for ; n != nil && n.run == nil; depth++ {
		if bit(key, depth) == 0 {
			siblings[depth], n = hashOf(n.right), n.left
		} else {
			siblings[depth], n = hashOf(n.left), n.right
		}
	}
	if n == nil {
		return nil, false
	}
	// Inside the page the spine goes on through nodes nobody stores: each
	// sibling is the hash of the half of the run the key is not in.
	run := n.run
	for ; len(run) > 0 && !oneKey(run); depth++ {
		mid := splitRun(run, depth)
		if bit(key, depth) == 0 {
			siblings[depth], run = hashRun(run[mid:], depth+1), run[:mid]
		} else {
			siblings[depth], run = hashRun(run[:mid], depth+1), run[mid:]
		}
	}
	if _, found := slices.BinarySearchFunc(run, hashedTuple{key, vh}, compareHashed); !found {
		return nil, false
	}
	p := &Proof{Key: key, Siblings: append([]Hash(nil), siblings[:depth]...)}
	if len(run) > 1 {
		p.Entries = countEntries(run, nil)
	}
	return p, true
}

// VerifyInclusion checks that root commits the tuple, given only the
// proof — no tree, no master data, no trust in whoever produced either.
// It recomputes the tuple's key and content hash itself, so a proof can
// never vouch for a tuple other than the one presented — an elided leaf
// (nil Entries) is read as (Sum(t), 1) — and it rejects a proof that is
// not in its one canonical form; every failure matches ErrBadProof.
func VerifyInclusion(root Hash, t relation.Tuple, p *Proof) error {
	if p == nil {
		return fmt.Errorf("%w: no proof", ErrBadProof)
	}
	if err := p.wellFormed(); err != nil {
		return err
	}
	if p.Key != Key(t) {
		return fmt.Errorf("%w: proof key does not match tuple", ErrBadProof)
	}
	vh := Sum(t)
	entries := p.Entries
	var elided [1]Entry
	if entries == nil {
		elided[0] = Entry{VHash: vh, Count: 1}
		entries = elided[:]
	} else if !slices.ContainsFunc(entries, func(e Entry) bool { return e.VHash == vh }) {
		return fmt.Errorf("%w: tuple content not in committed leaf", ErrBadProof)
	}
	h := leafHash(p.Key, entries)
	for d := len(p.Siblings) - 1; d >= 0; d-- {
		if bit(p.Key, d) == 0 {
			h = innerHash(h, p.Siblings[d])
		} else {
			h = innerHash(p.Siblings[d], h)
		}
	}
	if h != root {
		return fmt.Errorf("%w: recomputed root does not match", ErrBadProof)
	}
	return nil
}
