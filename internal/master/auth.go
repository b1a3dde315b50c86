package master

// The authenticated side of a snapshot: a WithAuth-built Data, and every
// durable or replicated lineage, carries a sparse-Merkle commitment
// (internal/authtree) over its tuple multiset, maintained copy-on-write by
// ApplyDelta the way the indexes are. The root travels with the lineage —
// arena images persist it (arena.go), every WAL record carries it, and
// Versioned.ApplyRecord (delta.go) checks it on replay and on followers —
// and inclusion proofs let a client check that a fix really consumed the
// claimed master tuples with no trust in the server (VerifyFix).

import (
	"fmt"

	"repro/internal/authtree"
	"repro/internal/relation"
)

// Authenticated reports whether the snapshot carries a Merkle commitment.
func (d *Data) Authenticated() bool { return d.auth != nil }

// AuthRoot returns the snapshot's 32-byte sparse-Merkle root, with
// ok=false when the snapshot is unauthenticated. The root is a pure
// function of the tuple multiset: identical across shard counts, delta
// orderings, rebuilds and processes.
func (d *Data) AuthRoot() (authtree.Hash, bool) {
	if d.auth == nil {
		return authtree.Hash{}, false
	}
	return d.auth.Root(), true
}

// Authenticate builds the snapshot's Merkle commitment in place — the
// from-scratch path used when a lineage turns authentication on after
// construction (recovered heads recompute-and-verify through the arena
// loader instead). Like Index, this is construction-time mutation: it
// must not race lookups and must not be called on a snapshot that
// already has ApplyDelta-derived children. A no-op when already
// authenticated.
func (d *Data) Authenticate() {
	if d.auth == nil {
		d.auth = authtree.BuildFunc(d.Len(), func(i int, buf relation.Tuple) relation.Tuple {
			return d.TupleInto(buf, i)
		})
	}
}

// ProveTuple returns an inclusion proof for master tuple id under the
// snapshot's root. Fails on an unauthenticated snapshot or an id out of
// range.
func (d *Data) ProveTuple(id int) (*authtree.Proof, error) {
	if d.auth == nil {
		return nil, fmt.Errorf("master: ProveTuple: snapshot is not authenticated")
	}
	if id < 0 || id >= d.Len() {
		return nil, fmt.Errorf("master: ProveTuple: id %d out of range [0, %d)", id, d.Len())
	}
	var buf [32]relation.Value // the tuple is only hashed: keep it off the heap
	p, ok := d.auth.Prove(d.TupleInto(buf[:0], id))
	if !ok {
		// The tree mirrors the rows by construction; a miss here means
		// the mirror invariant broke, which no input should be able to do.
		return nil, fmt.Errorf("master: ProveTuple: tuple %d missing from commitment", id)
	}
	return p, nil
}

// authRemove drops one committed tuple during delta planning; a miss is a
// broken tree-mirrors-relation invariant, never a caller error.
func authRemove(tr *authtree.Tree, t relation.Tuple) *authtree.Tree {
	nt, ok := tr.Remove(t)
	if !ok {
		panic("master: auth invariant: deleted tuple missing from commitment")
	}
	return nt
}
