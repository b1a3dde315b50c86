package master

// Follower is the replica half of epoch shipping: it publishes the
// leader's epoch lineage from shipped WAL records, through the same
// guarded path recovery uses (Versioned.applyRecord). Because delta
// application is deterministic, a follower that has applied records
// 1..E holds a head probe-for-probe identical to the leader's at E, so
// session tokens minted on any node resume on any other.
//
// A Follower owns no transport. The shipping loop (pkg/certainfix) feeds
// it records from wherever they come — the leader's GET /v1/wal stream, a
// Log.Tail in the same process — and reacts to the two typed conditions:
// ErrReplicaGap (fell behind a truncation: Reset onto the leader's
// checkpoint and keep tailing) and ErrDivergence (the lineages
// contradict each other: stop, a human is needed).

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/wal"
)

// ErrReplicaGap is the sentinel matched by ApplyRecord when the shipped
// record does not connect to the follower's head — epochs in between are
// missing, typically because the leader truncated its WAL behind a
// checkpoint while the follower was down. Recoverable: catch up from the
// leader's checkpoint (Reset), then resume tailing.
var ErrReplicaGap = errors.New("master: follower missing epochs before shipped record")

// ErrDivergence is the sentinel matched by a *DivergenceError: the
// shipped record cannot be a successor of the follower's head. Unlike a
// gap this is not recoverable by catching up — the two lineages disagree
// about the same epoch, so the follower refuses to publish anything
// further.
var ErrDivergence = errors.New("master: follower diverged from leader lineage")

// DivergenceError reports why a shipped record contradicts the
// follower's lineage. It matches ErrDivergence through errors.Is.
type DivergenceError struct {
	// Epoch is the shipped record's epoch.
	Epoch uint64
	// Head is the follower's head epoch at the time.
	Head uint64
	// Msg says what contradicted what.
	Msg string
}

func (e *DivergenceError) Error() string {
	return fmt.Sprintf("master: follower at epoch %d diverged applying shipped epoch %d: %s", e.Head, e.Epoch, e.Msg)
}

// Unwrap makes the error match ErrDivergence through errors.Is.
func (e *DivergenceError) Unwrap() error { return ErrDivergence }

// Follower publishes a leader's lineage into a Versioned that readers
// (derivers, sessions, the daemon) use exactly like a local one.
// ApplyRecord/Reset are serialized internally; readers are lock-free as
// always.
type Follower struct {
	ver *Versioned

	mu      sync.Mutex
	applied uint64 // records applied since construction or last Reset
}

// NewFollower starts a follower whose lineage begins at base — the
// leader's checkpoint image, or a shared initial snapshot whose epoch
// both sides agree on. The embedded Versioned serves reads immediately.
func NewFollower(base *Data, history int) *Follower {
	f := &Follower{ver: NewVersioned(base)}
	if history > 0 {
		f.ver.SetHistory(history)
	}
	return f
}

// Versioned exposes the snapshot ring for readers. Do NOT call its Apply:
// a follower's lineage is the leader's — local writes would fork it, and
// the next shipped record would be refused as divergence.
func (f *Follower) Versioned() *Versioned { return f.ver }

// Current returns the latest published snapshot.
func (f *Follower) Current() *Data { return f.ver.Current() }

// Epoch returns the latest published epoch — the follower's replication
// position. Lag is the leader's epoch minus this.
func (f *Follower) Epoch() uint64 { return f.ver.Epoch() }

// Applied reports how many records have been applied since construction
// or the last Reset.
func (f *Follower) Applied() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.applied
}

// ApplyRecord applies one shipped WAL record and publishes the snapshot
// it derives.
//
//   - epoch ≤ head: already applied (a reconnect replayed overlap) —
//     skipped silently, (false, nil).
//   - epoch = head+1: applied through ApplyDelta with the produced epoch
//     checked against the record's — (true, nil) on success.
//   - epoch > head+1: the follower missed records — ErrReplicaGap.
//   - the delta does not apply, or produces the wrong epoch: a
//     *DivergenceError matching ErrDivergence; nothing is published.
func (f *Follower) ApplyRecord(rec wal.Record) (bool, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	head := f.ver.Epoch()
	switch {
	case rec.Epoch <= head:
		return false, nil
	case rec.Epoch > head+1:
		return false, fmt.Errorf("master: follower at epoch %d shipped epoch %d: %w", head, rec.Epoch, ErrReplicaGap)
	}
	if m := f.ver.applyRecord(rec); m != nil {
		de := &DivergenceError{Epoch: rec.Epoch, Head: head}
		switch {
		case m.apply != nil:
			// The leader applied this exact delta successfully; if we
			// cannot, our state is not the leader's state at head.
			de.Msg = fmt.Sprintf("delta does not apply: %v", m.apply)
		case m.root != "":
			// The bytes we applied are not the bytes the leader applied,
			// though the delta went through cleanly: nothing after this
			// epoch can be trusted, and this is the epoch the lineages fork.
			de.Msg = fmt.Sprintf("applied root %s does not match leader root %x", m.root, rec.Root)
		default:
			de.Msg = fmt.Sprintf("delta produced epoch %d", m.epoch)
		}
		return false, de
	}
	f.applied++
	return true, nil
}

// Reset rebases the follower onto a new base snapshot — the leader's
// checkpoint image, after an ErrReplicaGap — discarding every retained
// epoch. Sessions pinned to discarded epochs fail their resume with
// ErrEpochEvicted, the same contract the bounded ring already imposes. A
// base older than the current head is refused: catching up must never
// move the published lineage backwards under a reader.
func (f *Follower) Reset(base *Data) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if head := f.ver.Epoch(); base.Epoch() < head {
		return fmt.Errorf("master: follower reset to epoch %d behind head %d refused", base.Epoch(), head)
	}
	f.ver.resetTo(base)
	f.applied = 0
	return nil
}
