package authtree

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strconv"

	"repro/internal/relation"
)

// ErrBadProof is the sentinel every proof rejection matches via
// errors.Is: malformed structure, a tuple the proof does not commit, or a
// spine that folds to a different root. Verifiers must treat all three
// identically — a proof either authenticates the tuple under the root or
// it proves nothing.
var ErrBadProof = errors.New("authtree: proof verification failed")

// Proof is an inclusion proof for one tuple: the committed leaf (key plus
// its full entry multiset) and the sibling hashes along the spine from
// the leaf back to the root, root-first — Siblings[d] is the hash of the
// subtree branching off at depth d, so the leaf sits at depth
// len(Siblings). The JSON form (hex hashes, decimal counts) is what fix
// responses carry.
type Proof struct {
	Key      uint64  `json:"key,string"`
	Entries  []Entry `json:"entries"`
	Siblings []Hash  `json:"siblings"`
}

// MarshalJSON renders a hash as a 64-char hex string.
func (h Hash) MarshalJSON() ([]byte, error) {
	return h.appendJSON(make([]byte, 0, 2*len(h)+2)), nil
}

// appendJSON appends the quoted hex form: hex digits need no escaping, so
// there is no string to build and nothing for a JSON encoder to do.
func (h Hash) appendJSON(b []byte) []byte {
	return append(hex.AppendEncode(append(b, '"'), h[:]), '"')
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

// MarshalJSON keeps entry counts compact: {"h": hex, "n": count}.
func (e Entry) MarshalJSON() ([]byte, error) {
	b := append(make([]byte, 0, 2*len(e.VHash)+32), `{"h":`...)
	b = append(e.VHash.appendJSON(b), `,"n":`...)
	return append(strconv.AppendUint(b, e.Count, 10), '}'), nil
}

// UnmarshalJSON parses the compact entry form.
func (e *Entry) UnmarshalJSON(b []byte) error {
	var w struct {
		H Hash   `json:"h"`
		N uint64 `json:"n"`
	}
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	e.VHash, e.Count = w.H, w.N
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
	return &Proof{Key: key, Entries: countEntries(run, nil), Siblings: append([]Hash(nil), siblings[:depth]...)}, true
}

// VerifyInclusion checks that root commits the tuple, given only the
// proof — no tree, no master data, no trust in whoever produced either.
// It recomputes the tuple's key and content hash itself, so a proof can
// never vouch for a tuple other than the one presented; every failure
// matches ErrBadProof.
func VerifyInclusion(root Hash, t relation.Tuple, p *Proof) error {
	if p == nil {
		return fmt.Errorf("%w: no proof", ErrBadProof)
	}
	if len(p.Siblings) > Depth {
		return fmt.Errorf("%w: %d siblings exceeds key width %d", ErrBadProof, len(p.Siblings), Depth)
	}
	if p.Key != Key(t) {
		return fmt.Errorf("%w: proof key does not match tuple", ErrBadProof)
	}
	// The entry list must be canonical — strictly vhash-ascending with
	// positive counts — or two different lists could encode one leaf.
	for i, e := range p.Entries {
		if e.Count == 0 {
			return fmt.Errorf("%w: zero-count entry", ErrBadProof)
		}
		if i > 0 && bytes.Compare(p.Entries[i-1].VHash[:], e.VHash[:]) >= 0 {
			return fmt.Errorf("%w: entries out of order", ErrBadProof)
		}
	}
	vh := Sum(t)
	found := false
	for _, e := range p.Entries {
		if e.VHash == vh {
			found = true
			break
		}
	}
	if !found {
		return fmt.Errorf("%w: tuple content not in committed leaf", ErrBadProof)
	}
	h := leafHash(p.Key, p.Entries)
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
