package monitor

// This file implements suspend/resume for fix sessions. AppendToken
// writes the full image of a Session's mutable state as one compact,
// authenticated binary token, and ResumeSession rebuilds a live Session
// from it — possibly in a different process, against a different Monitor
// built over the same (Σ, Dm) and holding the same token key. Together
// they turn the interactive state machine of §5 into the stateless-server
// pattern: a network frontend hands the token to the client after every
// round and holds nothing itself.
//
// Wire format (varint fields and the WAL's cell encoding, the style of
// internal/wal/record.go):
//
//	token = body | tag
//	tag   = HMAC-SHA256(key, body)                       32 bytes
//	body  = u8 version
//	        uvarint epoch            the pinned master snapshot
//	        u8 flags                 bit 0: done
//	        uvarint rounds, uvarint noProgress
//	        uvarint arity, arity × cell                  the working tuple
//	        set Z, set user, set auto
//	        list                                         the pending suggestion
//	        uvarint n, n × (uvarint attr, uvarint rule index in Σ,
//	                        uvarint master id)           witnesses, firing order
//	        uvarint r                                    recorded rounds
//	        r × (list suggested, set Δuser, set Δauto)   oldest round first
//	        r × (set changed, one cell per member)       newest round first
//	set   = uvarint w, w × uvarint word      bitset words; a Δ set is XORed
//	                                         word-wise with the round before
//	list  = uvarint n, n × uvarint position  in order (conflict escalations
//	                                         are appended out of order)
//
// The per-round history feeding Result.PerRound travels as deltas, so
// the token grows with what the rounds changed rather than with rounds ×
// arity: each round's cumulative user/auto sets are XORed against the
// previous round's (for these grow-only sets, exactly the members the
// round added), and its end-of-round tuple is stored as the cells that
// differ from the next later tuple — the values later rounds overwrote —
// walking back from the working tuple. Sets keep their word count, so a
// resumed session's Result is reflect.DeepEqual to the uninterrupted
// one's, not merely equal as sets.
//
// What is and is not captured:
//
//   - Everything the round loop reads or writes is captured: the working
//     tuple, the three attribute sets (validated / user-asserted /
//     rule-fixed), the pending suggestion, the no-progress and round
//     counters, the done flag, the witnesses and the per-round snapshots.
//     A resumed session is therefore step-for-step identical to the
//     uninterrupted one under CertainFix (no BDD cache).
//   - The round cap is NOT captured: it is the resuming monitor's
//     configuration, so no token can grant itself more rounds than the
//     operator allows. A session that has already used the resuming
//     monitor's cap resumes done.
//   - The master snapshot is captured by reference: its epoch. Resume
//     re-pins that epoch through the deriver (Versioned.At), so the
//     resumed rounds observe exactly the Dm the earlier rounds did, even
//     if the master head has moved on. When the epoch has been evicted
//     from the snapshot ring the resume fails with an error matching
//     master.ErrEpochEvicted unless ResumeOptions.RebaseToHead accepts
//     re-pinning the current head instead. An epoch the lineage has not
//     reached yet (a leader's token on a lagging follower) fails with
//     master.ErrEpochAhead either way: retry, do not rebase backwards.
//   - Witnesses travel as ids only; the master tuples and proofs are
//     re-materialized from the pinned snapshot by Result.
//   - The BDD cursor (CertainFix+) is deliberately NOT captured: it is a
//     position inside one process's shared suggestion cache, meaningless
//     in another process. Resume cold-restarts the traversal at the
//     cache root. This is safe — cached suggestions are revalidated
//     before use, and TransFix re-checks everything — but a resumed
//     CertainFix+ session may spend different rounds than the
//     uninterrupted run, exactly like the batch determinism caveat.
//
// Trust: the token asserts which attributes the users validated, which is
// what certainty rests on, so it is authenticated. The tag is verified
// before a single field is decoded and before any snapshot is pinned; a
// token that was truncated, altered, or minted under another key fails
// with ErrBadToken. Monitors that must resume each other's tokens (the
// replicas of one service) share Config.TokenKey.

import (
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"math"
	"sync"

	"repro/internal/fix"
	"repro/internal/master"
	"repro/internal/relation"
	"repro/internal/rule"
	"repro/internal/wal"
)

const (
	// tokenVersion is the one token format ResumeSession accepts. Tokens
	// live for minutes, so a format change replaces it rather than adding
	// a second decoder. (1 was the JSON token.)
	tokenVersion = 2
	tokenTagSize = sha256.Size
	flagDone     = 1 << 0
)

// ErrBadToken reports a session token that is not one this monitor (or a
// monitor sharing its key) minted: the tag does not verify, or — for a
// correctly tagged token from a monitor over other rules — the content
// does not fit the resuming monitor's schema. Like the other sentinels it
// is matched with errors.Is; the concrete error carries the detail.
var ErrBadToken = errors.New("monitor: invalid session token")

// tokenAuth seals and verifies tokens under one key. HMAC states are
// pooled: keying one costs two SHA-256 blocks and several allocations,
// which would otherwise be paid twice per request.
type tokenAuth struct {
	pool sync.Pool // of *macState
}

type macState struct {
	h   hash.Hash
	sum [tokenTagSize]byte
}

// newTokenAuth keys the authenticator; an empty key draws a random one,
// private to this process.
func newTokenAuth(key []byte) (*tokenAuth, error) {
	if len(key) == 0 {
		key = make([]byte, 32)
		if _, err := rand.Read(key); err != nil {
			return nil, fmt.Errorf("monitor: draw token key: %w", err)
		}
	} else {
		key = append([]byte(nil), key...)
	}
	a := &tokenAuth{}
	a.pool.New = func() any { return &macState{h: hmac.New(sha256.New, key)} }
	return a, nil
}

// tag computes the tag of body into the state's scratch.
func (st *macState) tag(body []byte) []byte {
	st.h.Reset()
	st.h.Write(body)
	return st.h.Sum(st.sum[:0])
}

// seal appends the tag of buf[start:] to buf.
func (a *tokenAuth) seal(buf []byte, start int) []byte {
	st := a.pool.Get().(*macState)
	buf = append(buf, st.tag(buf[start:])...)
	a.pool.Put(st)
	return buf
}

// open verifies token's tag in constant time and returns its body.
func (a *tokenAuth) open(token []byte) ([]byte, bool) {
	if len(token) < tokenTagSize {
		return nil, false
	}
	body, tag := token[:len(token)-tokenTagSize], token[len(token)-tokenTagSize:]
	st := a.pool.Get().(*macState)
	ok := hmac.Equal(st.tag(body), tag)
	a.pool.Put(st)
	return body, ok
}

// ruleIndex maps each rule name of Σ to the position of the first rule
// carrying it — what a token stores in place of the name.
func ruleIndex(sigma *rule.Set) map[string]int {
	idx := make(map[string]int, sigma.Len())
	for i, ru := range sigma.Rules() {
		if _, dup := idx[ru.Name()]; !dup {
			idx[ru.Name()] = i
		}
	}
	return idx
}

// AppendToken appends the session's token to buf and returns it. The
// token is a snapshot: later rounds do not change bytes already written.
func (s *Session) AppendToken(buf []byte) ([]byte, error) {
	start := len(buf)
	var flags byte
	if s.done {
		flags |= flagDone
	}
	buf = append(buf, tokenVersion)
	buf = binary.AppendUvarint(buf, s.d.Epoch())
	buf = append(buf, flags)
	buf = binary.AppendUvarint(buf, uint64(s.rounds))
	buf = binary.AppendUvarint(buf, uint64(s.noProgress))
	buf = binary.AppendUvarint(buf, uint64(len(s.t)))
	var err error
	for _, v := range s.t {
		if buf, err = wal.AppendCell(buf, v); err != nil {
			return nil, fmt.Errorf("monitor: session token: %w", err)
		}
	}
	buf = appendSet(buf, s.zSet, relation.AttrSet{})
	buf = appendSet(buf, s.userSet, relation.AttrSet{})
	buf = appendSet(buf, s.autoSet, relation.AttrSet{})
	buf = appendList(buf, s.sug)

	buf = binary.AppendUvarint(buf, uint64(len(s.witnesses)))
	for _, w := range s.witnesses {
		ri, ok := s.m.ruleIdx[w.Rule]
		if !ok {
			return nil, fmt.Errorf("monitor: session token: witness rule %q is not in Σ", w.Rule)
		}
		buf = binary.AppendUvarint(buf, uint64(w.Attr))
		buf = binary.AppendUvarint(buf, uint64(ri))
		buf = binary.AppendUvarint(buf, uint64(w.MasterID))
	}

	buf = binary.AppendUvarint(buf, uint64(len(s.perRound)))
	var prev RoundStat
	for _, r := range s.perRound {
		buf = appendList(buf, r.Suggested)
		buf = appendSet(buf, r.UserValidated, prev.UserValidated)
		buf = appendSet(buf, r.AutoFixed, prev.AutoFixed)
		prev = r
	}
	next := s.t
	for i := len(s.perRound) - 1; i >= 0; i-- {
		cur := s.perRound[i].Tuple
		changed := overwritten(cur, next)
		buf = appendSet(buf, changed, relation.AttrSet{})
		changed.Range(func(p int) bool {
			buf, err = wal.AppendCell(buf, cur[p])
			return err == nil
		})
		if err != nil {
			return nil, fmt.Errorf("monitor: session token: %w", err)
		}
		next = cur
	}
	return s.m.auth.seal(buf, start), nil
}

// overwritten returns the positions where a round's tuple cur differs
// from next, the tuple after it (the working tuple, after the last
// round): the cells a later round overwrote, which is how the token and
// Result's JSON both store a round's tuple. The two are of one arity.
func overwritten(cur, next relation.Tuple) relation.AttrSet {
	var changed relation.AttrSet
	for p := range cur {
		if cur[p] != next[p] {
			changed.Add(p)
		}
	}
	return changed
}

// appendSet appends set's words, each XORed with prev's word at the same
// index (prev empty: the set itself).
func appendSet(buf []byte, set, prev relation.AttrSet) []byte {
	words, pw := set.Words(), prev.Words()
	buf = binary.AppendUvarint(buf, uint64(len(words)))
	for i, w := range words {
		if i < len(pw) {
			w ^= pw[i]
		}
		buf = binary.AppendUvarint(buf, w)
	}
	return buf
}

func appendList(buf []byte, ps []int) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(ps)))
	for _, p := range ps {
		buf = binary.AppendUvarint(buf, uint64(p))
	}
	return buf
}

// tokenDecoder reads a token body against the resuming schema's arity.
type tokenDecoder struct {
	wal.Decoder
	arity int
}

// count reads a uvarint that must fit an int (a counter, an id).
func (d *tokenDecoder) count(what string) int {
	v := d.Uvarint(what)
	if v > math.MaxInt32 {
		d.Fail("%s %d exceeds int32", what, v)
		return 0
	}
	return int(v)
}

// below reads a uvarint that must be smaller than limit.
func (d *tokenDecoder) below(limit int, what string) int {
	v := d.Uvarint(what)
	if v >= uint64(limit) {
		d.Fail("%s %d out of range [0, %d)", what, v, limit)
		return 0
	}
	return int(v)
}

// set reads one attribute set (see appendSet); every member must be a
// position of the schema.
func (d *tokenDecoder) set(prev relation.AttrSet, what string) relation.AttrSet {
	n := d.Uvarint(what)
	if n > uint64(d.arity+63)/64 {
		d.Fail("%s has %d words, arity is %d", what, n, d.arity)
		return relation.AttrSet{}
	}
	if n == 0 {
		return relation.AttrSet{}
	}
	words, pw := make([]uint64, n), prev.Words()
	for i := range words {
		w := d.Uvarint(what)
		if i < len(pw) {
			w ^= pw[i]
		}
		if valid := d.arity - i<<6; valid < 64 && w>>uint(valid) != 0 {
			d.Fail("%s positions exceed arity %d", what, d.arity)
		}
		words[i] = w
	}
	if d.Err() != nil {
		return relation.AttrSet{} // never hand out members that failed the range check
	}
	return relation.AttrSetFromWords(words)
}

// list reads one position list (see appendList).
func (d *tokenDecoder) list(what string) []int {
	n := d.Length(what)
	if n > d.arity {
		d.Fail("%s has %d positions, arity is %d", what, n, d.arity)
	}
	if n == 0 || d.Err() != nil {
		return nil
	}
	ps := make([]int, n)
	for i := range ps {
		ps[i] = d.below(d.arity, what)
	}
	return ps
}

// ResumeOptions tunes ResumeSession.
type ResumeOptions struct {
	// RebaseToHead accepts re-pinning the currently published master
	// snapshot when the token's original epoch has been evicted from the
	// snapshot ring — never when the epoch is ahead of the head: a rebase
	// only moves a session forward. The resumed rounds then run against newer master
	// data than the earlier rounds did — every remaining suggestion and
	// TransFix cascade is computed against the head snapshot, so the fix
	// stays certain with respect to it, but the session loses the
	// single-epoch guarantee and may suggest or fix differently than the
	// uninterrupted run would have.
	RebaseToHead bool
}

// ResumeSession rebuilds a live Session from a token — the other half of
// Session.AppendToken. The monitor must be built over the same rules and
// master lineage and hold the minting monitor's key. The tag is verified
// first, on every path; then the token's epoch is re-pinned via the
// deriver (an error matching master.ErrEpochEvicted when the ring no
// longer retains it and opt.RebaseToHead is false, master.ErrEpochAhead
// when the lineage has not reached it yet, whatever opt says). Every
// other failure matches ErrBadToken.
func (m *Monitor) ResumeSession(token []byte, opt ResumeOptions) (*Session, error) {
	body, ok := m.auth.open(token)
	if !ok {
		return nil, fmt.Errorf("%w: authentication failed", ErrBadToken)
	}
	sigma := m.deriver.Sigma()
	r := sigma.Schema()
	d := tokenDecoder{Decoder: wal.NewDecoder(body), arity: r.Arity()}
	d.ShareStrings() // a token is a few hundred bytes of mostly cell text
	if v := d.U8("version"); d.Err() == nil && v != tokenVersion {
		return nil, fmt.Errorf("%w: version %d, want %d", ErrBadToken, v, tokenVersion)
	}
	epoch := d.Uvarint("epoch")
	flags := d.U8("flags")
	s := &Session{m: m}
	s.rounds = d.count("rounds")
	s.noProgress = d.count("no-progress counter")
	if arity := d.Uvarint("arity"); d.Err() == nil && arity != uint64(d.arity) {
		return nil, fmt.Errorf("%w: tuple arity %d does not match schema %s (%w)",
			ErrBadToken, arity, r, ErrArityMismatch)
	}
	if d.Err() == nil {
		s.t = make(relation.Tuple, d.arity)
		for p := range s.t {
			s.t[p] = d.Cell()
		}
	}
	s.zSet = d.set(relation.AttrSet{}, "z")
	s.userSet = d.set(relation.AttrSet{}, "user set")
	s.autoSet = d.set(relation.AttrSet{}, "auto set")
	s.sug = d.list("suggestion")

	if n := d.Length("witness count"); n > d.arity {
		d.Fail("%d witnesses, arity is %d", n, d.arity)
	} else if n > 0 {
		s.witnesses = make([]fix.Witness, n)
		for i := range s.witnesses {
			attr := d.below(d.arity, "witness attribute")
			ri := d.below(sigma.Len(), "witness rule")
			id := d.count("witness master id")
			if d.Err() != nil {
				break // ri may name no rule at all
			}
			s.witnesses[i] = fix.Witness{Attr: attr, Rule: sigma.Rule(ri).Name(), MasterID: id}
		}
	}

	// Rounds are appended as they decode, so a hostile count costs only
	// the bytes that back it.
	nRounds := d.Length("round count")
	if nRounds > 0 {
		s.perRound = make([]RoundStat, 0, min(nRounds, 8))
	}
	var prev RoundStat
	for i := 0; i < nRounds && d.Err() == nil; i++ {
		prev = RoundStat{
			Suggested:     d.list("round suggestion"),
			UserValidated: d.set(prev.UserValidated, "round user set"),
			AutoFixed:     d.set(prev.AutoFixed, "round auto set"),
		}
		s.perRound = append(s.perRound, prev)
	}
	next := s.t
	for i := len(s.perRound) - 1; i >= 0 && d.Err() == nil; i-- {
		changed := d.set(relation.AttrSet{}, "round tuple delta")
		t := next.Clone()
		changed.Range(func(p int) bool {
			t[p] = d.Cell()
			return true
		})
		s.perRound[i].Tuple = t
		next = t
	}
	if err := d.Finish("session token"); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadToken, err)
	}

	pinned, err := m.deriver.PinAt(epoch)
	if err != nil {
		// Only an evicted epoch may be traded for the head: rebasing a
		// session whose epoch this lineage has not reached yet would move
		// it back in time.
		if !opt.RebaseToHead || !errors.Is(err, master.ErrEpochEvicted) {
			return nil, err
		}
		pinned = m.deriver.Pin()
	}
	s.d = pinned
	// Ids must resolve inside the re-pinned snapshot: Result materializes
	// tuples (and proofs) from them. A token whose ids exceed the snapshot
	// is structurally bad, not evicted.
	dmLen := pinned.Master().Len()
	for _, w := range s.witnesses {
		if w.MasterID >= dmLen {
			return nil, fmt.Errorf("%w: witness master id %d exceeds master size %d", ErrBadToken, w.MasterID, dmLen)
		}
	}
	s.maxRounds = m.maxRounds()
	s.done = flags&flagDone != 0 || s.rounds >= s.maxRounds
	if m.cache != nil && !s.done {
		s.cursor = m.cache.Cursor() // cold restart; see the file comment
	}
	return s, nil
}
