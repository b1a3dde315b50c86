package monitor

// This file implements suspend/resume for fix sessions. A session is a
// pure function of its inputs: the input tuple t, Σ, Dm at the pinned
// epoch, and what the users asserted in each round (§5, Fig. 3: a round is
// assert → consistency check → TransFix, all deterministic). AppendToken
// writes those inputs, and nothing derived from them, as one compact
// authenticated token; ResumeSession rebuilds the Session by replaying
// them — possibly in another process, on a Monitor over the same Σ and
// master lineage holding the same key. A network frontend hands the token
// to the client after every round and holds nothing itself.
//
// Wire format (varint fields and the WAL's cell encoding, the style of
// internal/wal/record.go):
//
//	token = body | tag
//	tag   = HMAC-SHA256(key, body)                       32 bytes
//	body  = u8 version
//	        uvarint epoch            the pinned master snapshot
//	        u8 flags                 bit 0: done; no other bit is set
//	        uvarint arity
//	        set refs                 the begin positions written as symbol ids
//	        arity × (id | cell)      t's begin values in order: a member of
//	                                 refs as the uvarint id of its value in
//	                                 the pinned snapshot, any other position
//	                                 as its cell (see References below)
//	        [u32 check]              only when refs is not empty: refCheck
//	                                 of the referenced values, little-endian
//	        uvarint r, r × round                         oldest first
//	        list pending             the suggestion the users are asked
//	                                 next; empty on a done token
//	round = list suggested
//	        list toggled             the asserted positions' symmetric
//	                                 difference with suggested, ascending:
//	                                 empty when the users asserted what
//	                                 was asked
//	        set differs, one cell per member             the asserted cells
//	                                                     that are not t's
//	                                                     begin values
//	list  = uvarint n<<1, n × uvarint position      in order (conflict
//	                                                escalations are appended
//	                                                out of order), or
//	        uvarint b<<1 | 1, b × u8                an ascending list as
//	                                                its bitmap, bit p%8 of
//	                                                byte p/8, last byte not
//	                                                0 — written when shorter
//	set   = uvarint w, w × uvarint word      the bitset, bit p for position
//	                                         p: no word (w = 0) for the
//	                                         empty set, one otherwise
//
// A round's assertions are read off the history the session keeps for
// Result.PerRound: the positions the round added to the user set, and
// those whose cell it changed (the users asserted another value). Only
// Provide asserts, and every Provide that asserts records a round, so the
// open round is nothing but its pending suggestion, and a done session
// has none.
//
//   - Resume is a replay. The working tuple, the validated / user / auto
//     sets, the counters, the witnesses and Result.PerRound are derived by
//     running each recorded round again through Session.apply, the code
//     Provide runs. At the token's own epoch that reproduces the session
//     byte for byte. Replay never calls Suggest: each suggestion is read
//     from the token. A session never walks the Suggest+ cache (that is
//     Monitor.Fix's driver), so there is nothing else a token would have to
//     carry for a resumed session to equal the uninterrupted one.
//   - The round cap is NOT captured: it is arity + 1 on every monitor, so
//     a session that used it up was sealed done, and the done flag is all
//     a resume needs.
//   - The master snapshot is captured by its epoch, re-pinned through the
//     deriver (Versioned.At), so the replay observes exactly the Dm the
//     rounds did even if the head has moved on. An evicted epoch fails with
//     an error matching master.ErrEpochEvicted unless
//     ResumeOptions.RebaseToHead accepts the head instead. A rebase is the
//     same replay at the head: every cascade, witness and round record is
//     derived under the head's Dm, so provenance is the head's by
//     construction. A conflict the head raises in the last replayed round
//     joins the pending suggestion, where Provide routes one. An epoch the
//     lineage has not reached yet (a leader's token on a lagging follower)
//     fails with master.ErrEpochAhead either way: retry, never rebase
//     backwards.
//
// References: a begin cell no round asserted at its begin value is
// written as the pinned snapshot's symbol id for it (relation.Symbols)
// when the snapshot has interned the value and the id is shorter than the
// cell. A cell the users asserted travels as itself — a differs cell, or
// a begin cell a round asserted unchanged — so certainty never rests on a
// value read through a table. Resume resolves each id against the
// snapshot it pins, the head on a rebase, which is sound because a value's
// id never changes within a lineage: Fork keeps ids, the arena stores them
// as the snapshot holds them, and WAL replay and followers intern in the
// same order. A change that renumbers symbols (a compaction) must keep
// that or bump tokenVersion. The check after the cells is a hash of the
// referenced values themselves: a monitor whose table numbers them
// otherwise — one built over the same rows in another order, or over
// another master — resolves the ids to values that fail it, and the token
// is refused rather than read as another input.
//
// Trust: the token asserts which attributes the users validated, and to
// what; certainty rests on that, so it is authenticated. The tag is
// verified before a field is decoded or a snapshot pinned: a truncated,
// altered or foreign-key token fails with ErrBadToken. Replicas of one
// service share Config.TokenKey. Behind the tag the decoder trusts
// nothing: counts are bounded by the remaining bytes and the arity,
// positions are range-checked, a symbol id must name a value of the pinned
// table, the values the ids resolve to must match the check, a referenced
// position must not be one a round asserted at its begin value, and
// replay starts only once the whole body has decoded and every id has
// resolved, so a body costs at most the rounds its own bytes spell out.

import (
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/master"
	"repro/internal/relation"
	"repro/internal/wal"
)

const (
	// tokenVersion is the one token format ResumeSession accepts. Tokens
	// live for minutes, so a format change replaces it rather than adding
	// a second decoder. (1 was the JSON token, 2 the image of the
	// session's derived state, 3 gave the open round assertions, 4 wrote
	// every begin cell as itself, 5 wrote each round's asserted positions
	// as a second list beside its suggestion, every list position by
	// position, and a done session's stale suggestion as pending.)
	tokenVersion = 6
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
	buf = binary.AppendUvarint(buf, uint64(len(s.begin)))
	// The reference set and its ids, in position order.
	var refs relation.AttrSet
	var idBuf [relation.MaxArity]uint32
	ids := idBuf[:0]
	syms := s.d.Master().Symbols()
	for p, v := range s.begin {
		if s.assertedAtBegin(p) {
			continue
		}
		if id, ok := refID(syms, v); ok {
			refs.Add(p)
			ids = append(ids, id)
		}
	}
	buf = appendSet(buf, refs)
	var err error
	for p, v := range s.begin {
		if refs.Has(p) {
			buf = binary.AppendUvarint(buf, uint64(ids[0]))
			ids = ids[1:]
		} else if buf, err = wal.AppendCell(buf, v); err != nil {
			return nil, fmt.Errorf("monitor: session token: %w", err)
		}
	}
	if refs.Len() > 0 {
		buf = binary.LittleEndian.AppendUint32(buf, refCheck(s.begin, refs))
	}
	buf = binary.AppendUvarint(buf, uint64(len(s.perRound)))
	for i := range s.perRound {
		if buf, err = s.appendRound(buf, i); err != nil {
			return nil, fmt.Errorf("monitor: session token: %w", err)
		}
	}
	return s.m.auth.seal(appendList(buf, s.sug), start), nil
}

// refID returns v's id in syms when the table holds v and the id's
// uvarint is shorter than v's cell: when a reference pays.
func refID(syms *relation.Symbols, v relation.Value) (uint32, bool) {
	id, ok := syms.ID(v)
	if !ok {
		return 0, false
	}
	var b [binary.MaxVarintLen64]byte
	return id, binary.PutUvarint(b[:], uint64(id)) < wal.CellSize(v)
}

// refCheck folds the values at begin's reference positions into the
// 32-bit check a token carries after its cells. The values are hashed as
// themselves, not by id, so a table that numbers them otherwise resolves
// the ids to values that fail it.
func refCheck(begin relation.Tuple, refs relation.AttrSet) uint32 {
	acc := relation.HashSeed()
	for p, v := range begin {
		if refs.Has(p) {
			acc = relation.HashValue(acc, v)
		}
	}
	return uint32(acc ^ acc>>32)
}

// asserted reports whether round i asserted position p: added it to the
// user set, or changed its cell.
func (s *Session) asserted(i, p int) bool {
	r := &s.perRound[i]
	if !r.UserValidated.Has(p) {
		return false
	}
	if i == 0 {
		return true // the user set was empty before the first round
	}
	prev := &s.perRound[i-1]
	return !prev.UserValidated.Has(p) || r.Tuple[p] != prev.Tuple[p]
}

// assertedAtBegin reports whether some round asserted position p at t's
// begin value — a cell the token must then write as itself.
func (s *Session) assertedAtBegin(p int) bool {
	for i := range s.perRound {
		if s.asserted(i, p) && s.perRound[i].Tuple[p] == s.begin[p] {
			return true
		}
	}
	return false
}

// appendRound appends round i: its suggestion, the positions its users
// asserted as their symmetric difference with it, and the asserted cells
// that are not t's begin values.
func (s *Session) appendRound(buf []byte, i int) ([]byte, error) {
	r := &s.perRound[i]
	suggested := relation.NewAttrSet(r.Suggested...)
	var differs relation.AttrSet
	var toggledBuf [relation.MaxArity]int
	toggled := toggledBuf[:0]
	for p := range r.Tuple {
		asserted := s.asserted(i, p)
		if asserted != suggested.Has(p) {
			toggled = append(toggled, p)
		}
		if asserted && r.Tuple[p] != s.begin[p] {
			differs.Add(p)
		}
	}
	buf = appendList(buf, r.Suggested)
	buf = appendList(buf, toggled)
	buf = appendSet(buf, differs)
	var err error
	differs.Range(func(p int) bool {
		buf, err = wal.AppendCell(buf, r.Tuple[p])
		return err == nil
	})
	return buf, err
}

// appendSet appends set as its bitset: no word for the empty set, one
// otherwise.
func appendSet(buf []byte, set relation.AttrSet) []byte {
	var w uint64
	set.Range(func(p int) bool {
		w |= 1 << p
		return true
	})
	if w == 0 {
		return append(buf, 0)
	}
	return binary.AppendUvarint(append(buf, 1), w)
}

// appendList appends a position list: as its bitmap when ps ascends and
// the bitmap is shorter, position by position otherwise (see the format).
func appendList(buf []byte, ps []int) []byte {
	n := uvarintLen(uint64(len(ps)) << 1)
	for _, p := range ps {
		n += uvarintLen(uint64(p))
	}
	if nb, ok := bitmapLen(ps); ok && uvarintLen(uint64(nb)<<1|1)+nb < n {
		buf = binary.AppendUvarint(buf, uint64(nb)<<1|1)
		start := len(buf)
		for range nb {
			buf = append(buf, 0)
		}
		for _, p := range ps {
			buf[start+p>>3] |= 1 << (p & 7)
		}
		return buf
	}
	buf = binary.AppendUvarint(buf, uint64(len(ps))<<1)
	for _, p := range ps {
		buf = binary.AppendUvarint(buf, uint64(p))
	}
	return buf
}

// bitmapLen returns the bytes of ps's bitmap when ps is a non-empty
// strictly ascending list of positions: when the bitmap form keeps it.
func bitmapLen(ps []int) (int, bool) {
	if len(ps) == 0 || ps[0] < 0 {
		return 0, false
	}
	for i := 1; i < len(ps); i++ {
		if ps[i] <= ps[i-1] {
			return 0, false
		}
	}
	return ps[len(ps)-1]>>3 + 1, true
}

func uvarintLen(v uint64) int {
	return (bits.Len64(v|1) + 6) / 7
}

// tokenDecoder reads a token body against the resuming schema's arity.
type tokenDecoder struct {
	wal.Decoder
	arity int
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
func (d *tokenDecoder) set(what string) relation.AttrSet {
	var s relation.AttrSet
	n := d.Uvarint(what)
	if n > uint64(d.arity+63)/64 {
		d.Fail("%s has %d words, arity is %d", what, n, d.arity)
		return s
	}
	if n == 0 {
		return s
	}
	w := d.Uvarint(what)
	if d.arity < 64 && w>>uint(d.arity) != 0 {
		d.Fail("%s positions exceed arity %d", what, d.arity)
	}
	if d.Err() != nil {
		return s // never hand out members that failed the range check
	}
	for ; w != 0; w &= w - 1 {
		s.Add(bits.TrailingZeros64(w))
	}
	return s
}

// list reads one position list (see appendList).
func (d *tokenDecoder) list(what string) []int {
	head := d.Uvarint(what)
	if d.Err() != nil {
		return nil
	}
	if head&1 == 0 {
		n := head >> 1
		if n > uint64(d.arity) {
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
	nb := head >> 1
	if nb == 0 || nb > uint64(d.arity+7)/8 {
		d.Fail("%s has a bitmap of %d bytes, arity is %d", what, nb, d.arity)
		return nil
	}
	bitmap, n := make([]byte, 0, 16), 0 // on the stack for ≤ 128 attributes
	for i := 0; i < int(nb); i++ {
		bitmap = append(bitmap, d.U8(what))
		n += bits.OnesCount8(bitmap[i])
	}
	if last := bitmap[nb-1]; d.Err() == nil && (last == 0 || int(nb-1)<<3+bits.Len8(last) > d.arity) {
		d.Fail("%s bitmap ends in a zero byte or past arity %d", what, d.arity)
	}
	if d.Err() != nil {
		return nil
	}
	ps := make([]int, 0, n)
	for i, b := range bitmap {
		for ; b != 0; b &= b - 1 {
			ps = append(ps, i<<3+bits.TrailingZeros8(b))
		}
	}
	return ps
}

// tokenRound is one decoded round: its suggestion, and its users'
// assertions the way Provide takes them.
type tokenRound struct {
	suggested []int
	attrs     []int
	values    []relation.Value
}

// round reads one round (see appendRound). The asserted positions are
// the suggestion with the toggled ones flipped, ascending. An asserted
// position outside the differs set takes its begin value, so it must not
// be a reference; a differs member the round did not assert is
// malformed.
func (d *tokenDecoder) round(begin relation.Tuple, refs relation.AttrSet) tokenRound {
	r := tokenRound{suggested: d.list("suggestion")}
	toggled := d.list("toggled positions")
	differs := d.set("differs-from-begin set")
	if d.Err() != nil {
		return r
	}
	asserted := relation.NewAttrSet(r.suggested...)
	for i, p := range toggled {
		if i > 0 && p <= toggled[i-1] {
			d.Fail("toggled positions do not ascend")
			return r
		}
		if asserted.Has(p) {
			asserted.Remove(p)
		} else {
			asserted.Add(p)
		}
	}
	if asserted.Len() > 0 {
		r.attrs = asserted.Positions()
	}
	r.values = make([]relation.Value, len(r.attrs))
	for i, p := range r.attrs {
		if differs.Has(p) {
			continue
		}
		if refs.Has(p) {
			d.Fail("position %d is asserted at its begin value, which is a reference", p)
			return r
		}
		r.values[i] = begin[p]
	}
	differs.Range(func(p int) bool {
		i, found := slices.BinarySearch(r.attrs, p)
		if !found {
			d.Fail("differs-from-begin position %d was not asserted", p)
		} else {
			r.values[i] = d.Cell()
		}
		return d.Err() == nil
	})
	return r
}

// ResumeOptions tunes ResumeSession.
type ResumeOptions struct {
	// RebaseToHead accepts re-pinning the currently published master
	// snapshot when the token's original epoch has been evicted from the
	// snapshot ring — never when the epoch is ahead of the head: a rebase
	// only moves a session forward. The token's rounds are then replayed
	// on the head: the users' answers stand, and every cascade, witness and
	// round record is derived from the head's Dm, so the fix stays certain,
	// and its provenance verifiable, with respect to the head. The session
	// loses the single-epoch guarantee: the head may fix other cells than
	// the earlier rounds reported (see Session.Fixed), and later rounds may
	// suggest differently than the uninterrupted run would have.
	RebaseToHead bool
}

// ResumeSession rebuilds a live Session from a token — the other half of
// Session.AppendToken. The monitor must be built over the same rules and
// master lineage and hold the minting monitor's key. The tag is verified
// first, on every path; then the whole body is decoded, symbol ids
// unresolved; then the token's epoch is re-pinned via the deriver (an
// error matching master.ErrEpochEvicted when the ring no longer retains it
// and opt.RebaseToHead is false, master.ErrEpochAhead when the lineage has
// not reached it yet, whatever opt says); then each id is resolved against
// the pinned snapshot's symbol table and the values checked, and the
// recorded rounds are replayed on it. Every other failure matches
// ErrBadToken.
func (m *Monitor) ResumeSession(token []byte, opt ResumeOptions) (*Session, error) {
	body, ok := m.auth.open(token)
	if !ok {
		return nil, fmt.Errorf("%w: authentication failed", ErrBadToken)
	}
	r := m.deriver.Sigma().Schema()
	d := tokenDecoder{Decoder: wal.NewDecoder(body), arity: r.Arity()}
	d.ShareStrings() // a token is a few hundred bytes of mostly cell text
	if v := d.U8("version"); d.Err() == nil && v != tokenVersion {
		return nil, fmt.Errorf("%w: version %d, want %d", ErrBadToken, v, tokenVersion)
	}
	epoch := d.Uvarint("epoch")
	flags := d.U8("flags")
	if arity := d.Uvarint("arity"); d.Err() == nil && arity != uint64(d.arity) {
		return nil, fmt.Errorf("%w: tuple arity %d does not match schema %s (%w)",
			ErrBadToken, arity, r, ErrArityMismatch)
	}
	// ids holds the references in position order until the pinned table
	// resolves them.
	var idBuf [relation.MaxArity]uint64
	refs, ids := d.set("reference set"), idBuf[:0]
	var begin relation.Tuple
	var check uint32
	if d.Err() == nil {
		begin = make(relation.Tuple, d.arity)
		for p := range begin {
			if refs.Has(p) {
				ids = append(ids, d.Uvarint("symbol id"))
			} else {
				begin[p] = d.Cell()
			}
		}
		if len(ids) > 0 {
			check = d.U32("reference check")
		}
	}
	// Rounds are appended as they decode, so a hostile count costs only
	// the bytes that back it.
	n := d.Length("round count")
	rounds := make([]tokenRound, 0, min(n, 8))
	for i := 0; i < n && d.Err() == nil; i++ {
		rounds = append(rounds, d.round(begin, refs))
	}
	pending := d.list("pending suggestion")
	if flags&^flagDone != 0 {
		d.Fail("unknown flags %#x", flags)
	} else if flags&flagDone != 0 && len(pending) > 0 {
		d.Fail("a done token carries a pending suggestion")
	}
	if err := d.Finish("session token"); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadToken, err)
	}

	pinned, err := m.deriver.PinAt(epoch)
	rebased := false
	if err != nil {
		// Only an evicted epoch may be traded for the head: rebasing a
		// session whose epoch this lineage has not reached yet would move
		// it back in time.
		if !opt.RebaseToHead || !errors.Is(err, master.ErrEpochEvicted) {
			return nil, err
		}
		pinned, rebased = m.deriver.Pin(), true
	}
	syms := pinned.Master().Symbols()
	i := 0
	for p := range begin {
		if !refs.Has(p) {
			continue
		}
		id := ids[i]
		i++
		if id >= uint64(syms.Len()) {
			return nil, fmt.Errorf("%w: begin cell %d references symbol %d, the snapshot at epoch %d holds %d",
				ErrBadToken, p, id, pinned.Epoch(), syms.Len())
		}
		begin[p] = syms.Value(uint32(id))
	}
	if len(ids) > 0 && refCheck(begin, refs) != check {
		return nil, fmt.Errorf("%w: its symbol ids name other values in the snapshot at epoch %d than they did where it was minted (a master not of this lineage)",
			ErrBadToken, pinned.Epoch())
	}
	s := &Session{m: m, d: pinned, begin: begin, t: begin.Clone(), rebased: rebased}
	var conflicted []int
	for _, rd := range rounds {
		s.sug = rd.suggested
		if conflicted, err = s.apply(rd.attrs, rd.values); err != nil {
			return nil, err
		}
	}
	s.sug, s.done = pending, flags&flagDone != 0
	if !s.done {
		// A conflict the last replayed round met is the users' to settle.
		// At the token's own epoch the pending suggestion already holds
		// it; on a rebase it may be new.
		s.sug = appendMissing(s.sug, conflicted)
	}
	return s, nil
}
