package certainfix

import (
	"context"

	"repro/internal/monitor"
)

// FixSession is a first-class, resumable fixing session for one tuple —
// the interactive state machine of §5 (Fig. 2/3) with its user
// interaction turned inside out: instead of supplying a callback, the
// caller asks for Suggested attributes, gathers answers at its own pace
// (a form, a queue, a network round-trip that completes minutes later),
// and feeds them back through Provide.
//
//	sess, _ := sys.Begin(ctx, dirty)
//	for !sess.Done() {
//	    attrs := sess.Suggested()
//	    // ... ask the users about attrs; possibly suspend here:
//	    // token, _ := sess.MarshalBinary() → client; later:
//	    // sess, _ = sys.Resume(ctx, token)
//	    if err := sess.Provide(attrs, values); err != nil { ... }
//	}
//	res := sess.Result()
//
// A session pins the master snapshot current at Begin for its whole
// lifetime (including across suspend/resume while the epoch is
// retained), so concurrent UpdateMaster publishes never make rounds of
// one session disagree about Dm. Sessions are not safe for concurrent
// use; one session belongs to one interaction flow.
type FixSession struct {
	ctx  context.Context
	sess *monitor.Session
}

// Begin starts a resumable fix session for one input tuple (copied, not
// mutated). The context governs the session's subsequent calls: Provide
// fails with the context's error once it is done. A nil ctx means
// context.Background().
func (s *System) Begin(ctx context.Context, t Tuple) (*FixSession, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	sess, err := s.mon.NewSession(t)
	if err != nil {
		return nil, err
	}
	return &FixSession{ctx: ctx, sess: sess}, nil
}

// ResumeOption tunes Resume.
type ResumeOption interface {
	applyResume(*monitor.ResumeOptions)
}

type resumeOptionFunc func(*monitor.ResumeOptions)

func (f resumeOptionFunc) applyResume(o *monitor.ResumeOptions) { f(o) }

// RebaseToHead lets Resume re-pin the currently published master
// snapshot when the token's original epoch has been evicted from the
// snapshot ring. Resume then replays the token's answers on the head:
// every cascade and witness is derived from the head's master data, so
// the fix stays certain, and verifies (VerifyFix), under the head's root.
// The session loses the single-epoch guarantee and may interact
// differently than the uninterrupted run would have (Fixed covers the
// cells the head changed). It applies to evicted epochs only: a token
// from an epoch this System has not reached yet still fails with
// ErrEpochAhead, because a rebase never lowers a session's epoch.
func RebaseToHead() ResumeOption {
	return resumeOptionFunc(func(o *monitor.ResumeOptions) { o.RebaseToHead = true })
}

// Resume rebuilds a live session from a token produced by MarshalBinary
// — in this process or another one, as long as the System was built over
// the same rules and master lineage and holds the same token key
// (WithTokenKey). The token's tag is verified before anything else: a
// token that was altered, truncated or minted under another key fails
// with ErrBadToken. Its pinned epoch is then re-pinned from the snapshot
// ring; if it has been evicted the resume fails with ErrEpochEvicted
// unless RebaseToHead is given, and if this System has not reached it yet
// (a follower behind its leader) with ErrEpochAhead — retry. Every
// session ends after at most arity + 1 rounds, on every System, so a
// session that has used them up resumes done.
func (s *System) Resume(ctx context.Context, token []byte, opts ...ResumeOption) (*FixSession, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var ro monitor.ResumeOptions
	for _, o := range opts {
		o.applyResume(&ro)
	}
	sess, err := s.mon.ResumeSession(token, ro)
	if err != nil {
		return nil, err
	}
	return &FixSession{ctx: ctx, sess: sess}, nil
}

// Suggested returns the attribute positions the users should assert this
// round (a copy; empty once the session is done).
func (fs *FixSession) Suggested() []int { return fs.sess.Suggested() }

// Provide runs one round: the users assert t[attrs] = values (aligned
// slices; attrs may differ from Suggested — §5's "S may not necessarily
// be the same as sug"). Providing no attributes aborts the session:
// Done becomes true with Result().Completed false. Fails with the
// context's error when the session's context is done, ErrSessionDone
// after the session finished, ErrArityMismatch on misaligned input, and
// surfaces *ConflictError (matching ErrInconsistent) only through the
// suggestion flow — conflicts are routed back to the users, never
// guessed at.
func (fs *FixSession) Provide(attrs []int, values []Value) error {
	if err := fs.ctx.Err(); err != nil {
		return err
	}
	return fs.sess.Provide(attrs, values)
}

// Done reports whether the session finished (all attributes validated,
// the round cap hit, or the users declined).
func (fs *FixSession) Done() bool { return fs.sess.Done() }

// Completed reports whether every attribute is validated (Done can also
// mean the cap was hit or the users declined).
func (fs *FixSession) Completed() bool { return fs.sess.Completed() }

// Rounds returns the interaction rounds consumed so far.
func (fs *FixSession) Rounds() int { return fs.sess.Rounds() }

// Tuple returns the current working tuple (copy).
func (fs *FixSession) Tuple() Tuple { return fs.sess.Tuple() }

// Cell returns the working tuple's value at position p without copying the
// tuple: what a reply reads for the few cells it ships.
func (fs *FixSession) Cell(p int) Value { return fs.sess.Cell(p) }

// Validated returns the currently validated attribute set (copy).
func (fs *FixSession) Validated() AttrSet { return fs.sess.Validated() }

// Fixed returns the attributes the rules fixed in the latest round (empty
// before the first): the tuple before that round, plus the values the
// users provided in it, plus Tuple's cells at Fixed, is Tuple. It reads
// the session's round history only — no master tuples, no proofs — so it
// is what a reply that ships changes instead of the tuple sends. After a
// RebaseToHead it is every attribute the users did not assert.
func (fs *FixSession) Fixed() AttrSet { return fs.sess.Fixed() }

// Epoch returns the pinned master epoch — the epoch Resume will try to
// re-pin.
func (fs *FixSession) Epoch() uint64 { return fs.sess.Epoch() }

// Root returns the hex Merkle root of the pinned master snapshot, empty
// on an unauthenticated one (see WithAuth). Clients record it alongside the token: the proofs in
// Result().Provenance verify against exactly this root (VerifyFix).
func (fs *FixSession) Root() string { return fs.sess.Root() }

// Result summarizes the session so far (or finally, once Done).
func (fs *FixSession) Result() Result { return fs.sess.Result() }

// MarshalBinary implements encoding.BinaryMarshaler: the session token
// for Resume, here or in another process holding the same token key. It
// is opaque — the session's inputs (begin tuple, each round's suggestion
// and answers, the pinned epoch), from which Resume replays the rest,
// ending in an HMAC-SHA256 tag — and a snapshot: later rounds do not
// change a token already taken. What a session holds is read through
// Result, not out of the token.
func (fs *FixSession) MarshalBinary() ([]byte, error) {
	// Room for a typical token, so appending rarely regrows it.
	return fs.sess.AppendToken(make([]byte, 0, 512))
}
