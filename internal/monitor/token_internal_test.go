package monitor

// In-package token tests: they reach behind the tag. A token that does
// not verify never reaches the decoder, so exercising the decoder's own
// validation needs bodies sealed under the monitor's key — built here
// either from sessions put into states no round loop produces, or by
// resealing mutated bytes.

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/datagen"
	"repro/internal/master"
	"repro/internal/paperex"
	"repro/internal/relation"
	"repro/internal/wal"
)

var internalKey = []byte("monitor-internal-test-key")

// hospMonitor is a monitor over a small generated HOSP world, with the
// inputs and truths to drive sessions from.
func hospMonitor(tb testing.TB, key []byte) (*Monitor, *datagen.Dataset, *master.Versioned) {
	return generatedMonitor(tb, datagen.Hosp, key)
}

// generatedMonitor is a monitor over a small world gen generates.
func generatedMonitor(tb testing.TB, gen func(datagen.Config) (*datagen.Dataset, error), key []byte) (*Monitor, *datagen.Dataset, *master.Versioned) {
	tb.Helper()
	// 48 inputs at ~1.9 rounds each: the ~140 begin/round tokens that seed
	// FuzzResumeToken (40 inputs gave as many when a fix took ~2.3 rounds).
	ds, err := gen(datagen.Config{Seed: 1, MasterSize: 300, Tuples: 48, DupRate: 0.3, NoiseRate: 0.2})
	if err != nil {
		tb.Fatal(err)
	}
	ver := master.NewVersioned(ds.Master)
	m, err := NewVersioned(ds.Sigma, ver, Config{TokenKey: key})
	if err != nil {
		tb.Fatal(err)
	}
	return m, ds, ver
}

// answerTruth runs one round: the suggestion answered from truth.
func answerTruth(tb testing.TB, s *Session, truth relation.Tuple) {
	tb.Helper()
	attrs := s.Suggested()
	values := make([]relation.Value, len(attrs))
	for j, p := range attrs {
		values[j] = truth[p]
	}
	if err := s.Provide(attrs, values); err != nil {
		tb.Fatal(err)
	}
}

// roundTokens drives every generated session to completion and returns
// the token it would hand out at begin and after each round.
func roundTokens(tb testing.TB, m *Monitor, ds *datagen.Dataset) [][]byte {
	tb.Helper()
	var tokens [][]byte
	for i, input := range ds.Inputs {
		s, err := m.NewSession(input)
		if err != nil {
			tb.Fatal(err)
		}
		for {
			tok, err := s.AppendToken(nil)
			if err != nil {
				tb.Fatal(err)
			}
			tokens = append(tokens, tok)
			if s.Done() {
				break
			}
			answerTruth(tb, s, ds.Truths[i])
		}
	}
	return tokens
}

// longestToken picks the token with the most history behind it.
func longestToken(tokens [][]byte) []byte {
	best := tokens[0]
	for _, t := range tokens {
		if len(t) > len(best) {
			best = t
		}
	}
	return best
}

// reseal replaces the tag of a (mutated) token by a valid one.
func reseal(m *Monitor, token []byte) []byte {
	body := append([]byte(nil), token[:len(token)-tokenTagSize]...)
	return m.auth.seal(body, 0)
}

// forgeBody builds a token body no session mints, at epoch with flags:
// begin with the positions in refs written as the symbol ids they map to,
// and the check of begin's values at those positions, then the round
// count and the parts as given — closed rounds (see forgeRound), then the
// pending suggestion.
func forgeBody(epoch uint64, flags byte, begin relation.Tuple, refs map[int]uint64, count uint64, parts ...[]byte) []byte {
	body := append(binary.AppendUvarint([]byte{tokenVersion}, epoch), flags)
	body = binary.AppendUvarint(body, uint64(len(begin)))
	var set relation.AttrSet
	for p := range refs {
		set.Add(p)
	}
	body = appendSet(body, set)
	for p, v := range begin {
		if id, ok := refs[p]; ok {
			body = binary.AppendUvarint(body, id)
		} else {
			body, _ = wal.AppendCell(body, v)
		}
	}
	if len(refs) > 0 {
		body = binary.LittleEndian.AppendUint32(body, refCheck(begin, set))
	}
	body = binary.AppendUvarint(body, count)
	for _, p := range parts {
		body = append(body, p...)
	}
	return body
}

// forgeRound builds one closed round of a forged body: the users of a
// round that suggested suggested asserted the positions of asserted.
func forgeRound(suggested, asserted []int, differs relation.AttrSet, cells ...relation.Value) []byte {
	var toggled relation.AttrSet
	for _, p := range slices.Concat(suggested, asserted) {
		if toggled.Has(p) {
			toggled.Remove(p)
		} else {
			toggled.Add(p)
		}
	}
	return forgeRawRound(suggested, toggled.Positions(), differs, cells...)
}

// forgeRawRound builds one closed round of a forged body with its toggled
// list as given.
func forgeRawRound(suggested, toggled []int, differs relation.AttrSet, cells ...relation.Value) []byte {
	b := appendSet(appendList(appendList(nil, suggested), toggled), differs)
	for _, v := range cells {
		b, _ = wal.AppendCell(b, v)
	}
	return b
}

// interned returns the first position of t whose value m's current
// snapshot has interned, and its symbol id.
func interned(tb testing.TB, m *Monitor, t relation.Tuple) (int, uint32) {
	tb.Helper()
	syms := m.deriver.Master().Symbols()
	for p, v := range t {
		if id, ok := syms.ID(v); ok {
			return p, id
		}
	}
	tb.Fatal("no value of the tuple is interned: nothing to reference")
	return 0, 0
}

// tokenRefs reads the set of begin positions a token writes as symbol
// ids.
func tokenRefs(tb testing.TB, m *Monitor, token []byte) relation.AttrSet {
	tb.Helper()
	body, ok := m.auth.open(token)
	if !ok {
		tb.Fatal("token does not verify")
	}
	d := tokenDecoder{Decoder: wal.NewDecoder(body), arity: m.deriver.Sigma().Schema().Arity()}
	d.U8("version")
	d.Uvarint("epoch")
	d.U8("flags")
	d.Uvarint("arity")
	refs := d.set("reference set")
	if d.Err() != nil {
		tb.Fatal(d.Err())
	}
	return refs
}

// TestResumeSessionValidation: correctly sealed tokens whose content does
// not fit the resuming monitor are rejected with ErrBadToken (and
// ErrArityMismatch where the shape is wrong) — the decoder does not lean
// on the tag for its own safety.
func TestResumeSessionValidation(t *testing.T) {
	m, ds, _ := hospMonitor(t, internalKey)
	arity := ds.Sigma.Schema().Arity()
	base := func() *Session {
		s, err := m.NewSession(ds.Inputs[0])
		if err != nil {
			t.Fatal(err)
		}
		answerTruth(t, s, ds.Truths[0])
		return s
	}
	good, err := base().AppendToken(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.ResumeSession(good, ResumeOptions{}); err != nil {
		t.Fatalf("the unmodified token must resume: %v", err)
	}

	for _, tok := range [][]byte{nil, {}, good[:tokenTagSize-1], good[len(good)-tokenTagSize:]} {
		if _, err := m.ResumeSession(tok, ResumeOptions{}); !errors.Is(err, ErrBadToken) {
			t.Fatalf("token of %d bytes = %v, want ErrBadToken", len(tok), err)
		}
	}

	future := append([]byte(nil), good...)
	future[0] = 99
	if _, err := m.ResumeSession(reseal(m, future), ResumeOptions{}); !errors.Is(err, ErrBadToken) {
		t.Fatalf("unknown version = %v", err)
	}
	trailing := append(append([]byte(nil), good[:len(good)-tokenTagSize]...), 0)
	if _, err := m.ResumeSession(m.auth.seal(trailing, 0), ResumeOptions{}); !errors.Is(err, ErrBadToken) {
		t.Fatalf("trailing byte = %v", err)
	}

	hostile := []struct {
		name   string
		mutate func(s *Session)
	}{
		{"out-of-range suggestion", func(s *Session) { s.sug = []int{arity} }},
		{"oversized suggestion", func(s *Session) { s.sug = make([]int, arity+1) }},
	}
	for _, h := range hostile {
		s := base()
		h.mutate(s)
		tok, err := s.AppendToken(nil)
		if err != nil {
			t.Fatalf("%s: %v", h.name, err)
		}
		_, err = m.ResumeSession(tok, ResumeOptions{})
		if !errors.Is(err, ErrBadToken) {
			t.Errorf("%s = %v, want ErrBadToken", h.name, err)
		}
	}

	// Resealed bodies no session mints, with ds.Inputs[0] as the begin
	// tuple; refs is one of its cells as a reference.
	epoch := base().Epoch()
	forgeRefs := func(refs map[int]uint64, count uint64, parts ...[]byte) []byte {
		return m.auth.seal(forgeBody(epoch, 0, ds.Inputs[0], refs, count, parts...), 0)
	}
	forge := func(count uint64, parts ...[]byte) []byte { return forgeRefs(nil, count, parts...) }
	syms := m.deriver.Master().Symbols()
	ref, sym := interned(t, m, ds.Inputs[0])
	refs := map[int]uint64{ref: uint64(sym)}
	pending := appendList(nil, []int{0})
	closed := forgeRound([]int{0}, []int{0}, relation.AttrSet{})
	for name, tok := range map[string][]byte{
		"a pending suggestion only":          forge(0, pending),
		"a round asserting one changed cell": forge(1, forgeRound([]int{0}, []int{0, 1}, relation.NewAttrSet(1), relation.String("x")), pending),
		"a reference":                        forgeRefs(refs, 0, pending),
		"a reference asserted at another value": forgeRefs(refs, 1,
			forgeRound([]int{ref}, []int{ref}, relation.NewAttrSet(ref), relation.String("x")), pending),
	} {
		s, err := m.ResumeSession(tok, ResumeOptions{})
		if err != nil {
			t.Fatalf("well-formed body with %s: %v", name, err)
		}
		if !s.begin.Equal(ds.Inputs[0]) {
			t.Fatalf("body with %s resumed begin %v, want %v", name, s.begin, ds.Inputs[0])
		}
	}
	done, err := m.ResumeSession(m.auth.seal(forgeBody(epoch, flagDone, ds.Inputs[0], nil, 0, appendList(nil, nil)), 0), ResumeOptions{})
	if err != nil || !done.Done() || done.Suggested() != nil {
		t.Fatalf("a done body with no pending suggestion resumed to %v (done %v, suggested %v)", err, done != nil && done.Done(), done.Suggested())
	}
	// Position lists in their bitmap form: header, then the bytes.
	bitmap := func(b ...byte) []byte {
		return append(binary.AppendUvarint(nil, uint64(len(b))<<1|1), b...)
	}
	overArity := make([]byte, (arity+7)/8)
	if arity%8 == 0 {
		t.Fatalf("arity %d leaves no bit of the last bitmap byte beyond it", arity)
	}
	overArity[len(overArity)-1] = 1 << (arity % 8)
	formatFive := forgeBody(epoch, 0, ds.Inputs[0], refs, 0, pending)
	formatFive[0] = tokenVersion - 1
	for name, tok := range map[string][]byte{
		"asserted position out of range":       forge(1, forgeRound(nil, []int{arity}, relation.AttrSet{}), pending),
		"toggled list longer than the arity":   forge(1, forgeRawRound(nil, make([]int, arity+1), relation.AttrSet{}), pending),
		"toggled positions out of order":       forge(1, forgeRawRound(nil, []int{1, 0}, relation.AttrSet{}), pending),
		"toggled position repeated":            forge(1, forgeRawRound(nil, []int{0, 0}, relation.AttrSet{}), pending),
		"empty bitmap":                         forge(0, bitmap()),
		"bitmap ending in a zero byte":         forge(0, bitmap(1, 0)),
		"bitmap longer than the arity":         forge(0, bitmap(append(make([]byte, (arity+7)/8), 1)...)),
		"bitmap position beyond the arity":     forge(0, bitmap(overArity...)),
		"done token with a pending suggestion": m.auth.seal(forgeBody(epoch, flagDone, ds.Inputs[0], nil, 0, pending), 0),
		"unknown flag":                         m.auth.seal(forgeBody(epoch, flagDone<<1, ds.Inputs[0], nil, 0, pending), 0),
		"differs member beyond the arity":      forge(1, forgeRound(nil, []int{0}, relation.NewAttrSet(arity), relation.String("x")), pending),
		"differs member that was not asserted": forge(1, forgeRound(nil, []int{0}, relation.NewAttrSet(1), relation.String("x")), pending),
		"differs member without its cell":      forge(1, forgeRound(nil, []int{1}, relation.NewAttrSet(1))),
		"pending position out of range":        forge(0, appendList(nil, []int{arity})),
		"no pending suggestion":                forge(0),
		"round count beyond the bytes":         forge(1000, pending),
		"round count one short of its rounds":  forge(0, closed, pending),
		"round count one past its rounds":      forge(2, closed, pending),
		"reference beyond the pinned table":    forgeRefs(map[int]uint64{ref: uint64(syms.Len())}, 0, pending),
		"reference to another value":           forgeRefs(map[int]uint64{ref: uint64(sym+1) % uint64(syms.Len())}, 0, pending),
		"reference asserted at its begin value": forgeRefs(refs, 1,
			forgeRound([]int{ref}, []int{ref}, relation.AttrSet{}), pending),
		"reference member beyond the arity": forgeRefs(map[int]uint64{arity: uint64(sym)}, 0, pending),
		"format 5":                          m.auth.seal(formatFive, 0),
	} {
		for _, opt := range []ResumeOptions{{}, {RebaseToHead: true}} {
			if _, err := m.ResumeSession(tok, opt); !errors.Is(err, ErrBadToken) {
				t.Errorf("%s (rebase %v) = %v, want ErrBadToken", name, opt.RebaseToHead, err)
			}
		}
	}

	// A token minted, under the same key, by a monitor over another
	// schema: the shape is wrong.
	sigma := paperex.Sigma0()
	other, err := New(sigma, master.MustNewForRules(paperex.MasterRelation(), sigma), Config{TokenKey: internalKey})
	if err != nil {
		t.Fatal(err)
	}
	foreign, err := other.NewSession(paperex.InputT1())
	if err != nil {
		t.Fatal(err)
	}
	tok, err := foreign.AppendToken(nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.ResumeSession(tok, ResumeOptions{})
	if !errors.Is(err, ErrBadToken) || !errors.Is(err, ErrArityMismatch) {
		t.Fatalf("token of another schema = %v, want ErrBadToken and ErrArityMismatch", err)
	}
}

// TestTokenTamper: nothing but the exact bytes a monitor holding the key
// sealed resumes. Every single-byte change, every truncation, a tag moved
// between two valid tokens, a token sealed under another key, and a
// token whose first round asserted one attribute more all fail with
// ErrBadToken — on the rebase path too, before any snapshot is pinned.
func TestTokenTamper(t *testing.T) {
	m, ds, _ := hospMonitor(t, internalKey)
	tokens := roundTokens(t, m, ds)
	tok := longestToken(tokens)
	reject := func(what string, forged []byte) {
		t.Helper()
		for _, opt := range []ResumeOptions{{}, {RebaseToHead: true}} {
			if _, err := m.ResumeSession(forged, opt); !errors.Is(err, ErrBadToken) {
				t.Fatalf("%s (rebase %v) = %v, want ErrBadToken", what, opt.RebaseToHead, err)
			}
		}
	}

	for off := range tok {
		forged := append([]byte(nil), tok...)
		forged[off] ^= 0x01
		reject("flipped byte", forged)
		reject("truncated token", tok[:off])
	}

	var other []byte
	for _, o := range tokens {
		if !bytes.Equal(o, tok) {
			other = o
			break
		}
	}
	swapped := append(append([]byte(nil), tok[:len(tok)-tokenTagSize]...), other[len(other)-tokenTagSize:]...)
	reject("tag of another valid token", swapped)

	stranger, _, _ := hospMonitor(t, []byte("some other deployment's key"))
	if _, err := stranger.ResumeSession(tok, ResumeOptions{}); !errors.Is(err, ErrBadToken) {
		t.Fatalf("token under another key = %v, want ErrBadToken", err)
	}
	unkeyed, _, _ := hospMonitor(t, nil) // draws its own random key
	if _, err := unkeyed.ResumeSession(tok, ResumeOptions{}); !errors.Is(err, ErrBadToken) {
		t.Fatalf("token on a monitor with a private key = %v, want ErrBadToken", err)
	}

	// The forgery the tag exists to stop: claim the users validated one
	// more attribute in a closed round. The body is well-formed — this
	// monitor would resume it had it sealed it — but the client cannot
	// produce its tag.
	genuine := tokens[1] // ds.Inputs[0] after its first round
	s, err := m.ResumeSession(genuine, ResumeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Rounds() != 1 {
		t.Fatalf("the forged token needs one closed round, has %d", s.Rounds())
	}
	claimed := -1
	for p := range s.t {
		if !s.perRound[0].UserValidated.Has(p) {
			claimed = p
			break
		}
	}
	if claimed < 0 {
		t.Fatal("the first round asserted every attribute: nothing left to claim")
	}
	s.perRound[0].UserValidated.Add(claimed)
	wellFormed, err := s.AppendToken(nil)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(wellFormed, genuine) {
		t.Fatal("the claimed attribute must change the body")
	}
	if _, err := m.ResumeSession(wellFormed, ResumeOptions{}); err != nil {
		t.Fatalf("the forged body must be well-formed for the test to mean anything: %v", err)
	}
	forged := append(append([]byte(nil), wellFormed[:len(wellFormed)-tokenTagSize]...), genuine[len(genuine)-tokenTagSize:]...)
	reject("one more asserted attribute under the genuine tag", forged)
	forgedByStranger, err := func() ([]byte, error) {
		s.m = stranger
		defer func() { s.m = m }()
		return s.AppendToken(nil)
	}()
	if err != nil {
		t.Fatal(err)
	}
	reject("one more asserted attribute, sealed under the forger's own key", forgedByStranger)
}

// TestTokenRoundTripIdentity: resuming a token and marshalling the session
// again yields the same bytes — at every round of every generated session.
func TestTokenRoundTripIdentity(t *testing.T) {
	m, ds, _ := hospMonitor(t, internalKey)
	for i, tok := range roundTokens(t, m, ds) {
		s, err := m.ResumeSession(tok, ResumeOptions{})
		if err != nil {
			t.Fatalf("token %d: %v", i, err)
		}
		again, err := s.AppendToken(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, tok) {
			t.Fatalf("token %d changed across resume:\n was %x\n now %x", i, tok, again)
		}
	}
}

// TestTokenGolden pins the token format byte for byte: every begin and
// round token of the generated HOSP sessions, sealed under internalKey,
// hashed in order. A change to how a token is written fails here until it
// bumps tokenVersion and rewrites the three numbers on purpose.
func TestTokenGolden(t *testing.T) {
	m, ds, _ := hospMonitor(t, internalKey)
	tokens := roundTokens(t, m, ds)
	h, n := sha256.New(), 0
	for _, tok := range tokens {
		h.Write(tok)
		n += len(tok)
	}
	const (
		wantTokens = 140
		wantBytes  = 26192
		wantSHA256 = "3cbb1253a69c1f1dfdfddf16f728c8027c455c0e70671e79411073be33a46a0f"
	)
	if got := hex.EncodeToString(h.Sum(nil)); len(tokens) != wantTokens || n != wantBytes || got != wantSHA256 {
		t.Fatalf("%d tokens, %d B, sha256 %s; want %d tokens, %d B, sha256 %s",
			len(tokens), n, got, wantTokens, wantBytes, wantSHA256)
	}
}

// TestAssertedCellsStayLiteral: every value a user asserted travels as
// itself. Across every token of every generated HOSP and DBLP session, a
// position some round asserted at its begin value — by this test's own
// record of what it provided — is never a reference (a value other than
// the begin value is a differs cell, which is always literal). The check
// is not vacuous: the tokens carry references, and some of the positions
// it guards hold values the snapshot would have let them reference.
func TestAssertedCellsStayLiteral(t *testing.T) {
	gens := []struct {
		name string
		gen  func(datagen.Config) (*datagen.Dataset, error)
	}{{"hosp", datagen.Hosp}, {"dblp", datagen.Dblp}}
	for _, g := range gens {
		t.Run(g.name, func(t *testing.T) {
			m, ds, _ := generatedMonitor(t, g.gen, internalKey)
			syms := m.deriver.Master().Symbols()
			refCells, guarded := 0, 0
			for i, input := range ds.Inputs {
				s, err := m.NewSession(input)
				if err != nil {
					t.Fatal(err)
				}
				var atBegin relation.AttrSet // positions provided at their begin value
				for {
					tok, err := s.AppendToken(nil)
					if err != nil {
						t.Fatal(err)
					}
					refs := tokenRefs(t, m, tok)
					refCells += refs.Len()
					atBegin.Range(func(p int) bool {
						if _, ok := refID(syms, input[p]); ok {
							guarded++
						}
						if refs.Has(p) {
							t.Fatalf("input %d round %d: position %d was asserted at its begin value but is a reference", i, s.Rounds(), p)
						}
						return true
					})
					if s.Done() {
						break
					}
					for _, p := range s.Suggested() {
						if ds.Truths[i][p] == input[p] {
							atBegin.Add(p)
						}
					}
					answerTruth(t, s, ds.Truths[i])
				}
			}
			if refCells == 0 || guarded == 0 {
				t.Fatalf("%d reference cells, %d guarded cells: the check is vacuous", refCells, guarded)
			}
			t.Logf("%d reference cells, %d guarded cells", refCells, guarded)
		})
	}
}

// FuzzResumeToken throws hostile tokens at ResumeSession, seeded with the
// real token of every round of the generated HOSP sessions and with the
// bodies the setup below describes. Each input is
// tried twice. As a client would send it, it either fails with
// ErrBadToken or — only the seeds themselves can — resumes to a session
// that marshals back to the identical token. Then resealed under the
// monitor's own key, so the decoder behind the tag meets the mutated
// bytes: it rejects with ErrBadToken or accepts, and what it accepts
// re-marshals to a token that resumes and re-marshals to itself. Neither
// may panic, and no length field may size an allocation the remaining
// bytes do not back (a hostile count would show as a fuzzer OOM).
func FuzzResumeToken(f *testing.F) {
	m, ds, ver := hospMonitor(f, internalKey)
	// A body minted at epoch 0, which the deltas below evict: sealed by the
	// fuzz target, it is rebased onto a head that has interned values since,
	// and its references resolve there.
	s, err := m.NewSession(ds.Inputs[0])
	if err != nil {
		f.Fatal(err)
	}
	answerTruth(f, s, ds.Truths[0])
	rebase, err := s.AppendToken(nil)
	if err != nil {
		f.Fatal(err)
	}
	if tokenRefs(f, m, rebase).Len() == 0 {
		f.Fatal("the rebase seed carries no reference")
	}
	f.Add(rebase[:len(rebase)-tokenTagSize])
	// Epoch 1 interns a tuple of new values, epoch 2 repeats a master tuple;
	// the ring keeps those two, so a mutated epoch field can hit a retained
	// epoch, an evicted one and one ahead of the head.
	fresh := ds.Master.Tuple(0).Clone()
	for c := range fresh {
		fresh[c] = relation.String(fmt.Sprintf("fuzz-fresh-%d", c))
	}
	for _, add := range []relation.Tuple{fresh, ds.Master.Tuple(0).Clone()} {
		if _, err := ver.Apply([]relation.Tuple{add}, nil); err != nil {
			f.Fatal(err)
		}
	}
	ver.SetHistory(2)
	for _, tok := range roundTokens(f, m, ds) {
		f.Add(tok)
	}
	// Bodies the decoder must refuse behind a valid tag: a reference beyond
	// the pinned table, one that resolves to a value its check does not
	// cover, one on a position a round asserts at its begin value, and a
	// done token that still carries a pending suggestion.
	ref, id := interned(f, m, ds.Inputs[0])
	head := ver.Epoch()
	syms := m.deriver.Master().Symbols()
	pending := appendList(nil, []int{0})
	f.Add(forgeBody(head, 0, ds.Inputs[0], map[int]uint64{ref: uint64(syms.Len())}, 0, pending))
	f.Add(forgeBody(head, 0, ds.Inputs[0], map[int]uint64{ref: uint64(id+1) % uint64(syms.Len())}, 0, pending))
	f.Add(forgeBody(head, 0, ds.Inputs[0], map[int]uint64{ref: uint64(id)}, 1,
		forgeRound([]int{ref}, []int{ref}, relation.AttrSet{}), pending))
	f.Add(forgeBody(head, flagDone, ds.Inputs[0], nil, 0, pending))
	f.Fuzz(func(t *testing.T, data []byte) {
		if s, err := m.ResumeSession(data, ResumeOptions{}); err != nil {
			if !errors.Is(err, ErrBadToken) {
				t.Fatalf("unsealed input = %v, want ErrBadToken", err)
			}
		} else if again, err := s.AppendToken(nil); err != nil || !bytes.Equal(again, data) {
			t.Fatalf("accepted token does not marshal back to itself (%v):\n was %x\n now %x", err, data, again)
		}

		sealed := m.auth.seal(append([]byte(nil), data...), 0)
		s, err := m.ResumeSession(sealed, ResumeOptions{})
		if errors.Is(err, master.ErrEpochEvicted) {
			s, err = m.ResumeSession(sealed, ResumeOptions{RebaseToHead: true})
		}
		if errors.Is(err, master.ErrEpochAhead) {
			// A mutated epoch beyond the head: typed, and never rebased.
			if _, err := m.ResumeSession(sealed, ResumeOptions{RebaseToHead: true}); !errors.Is(err, master.ErrEpochAhead) {
				t.Fatalf("rebase of an epoch ahead of the head = %v, want ErrEpochAhead", err)
			}
			return
		}
		if err != nil {
			if !errors.Is(err, ErrBadToken) {
				t.Fatalf("resealed input = %v, want ErrBadToken", err)
			}
			return
		}
		first, err := s.AppendToken(nil)
		if err != nil {
			t.Fatalf("accepted session does not marshal: %v", err)
		}
		s2, err := m.ResumeSession(first, ResumeOptions{})
		if err != nil {
			t.Fatalf("re-marshalled token does not resume: %v", err)
		}
		second, err := s2.AppendToken(nil)
		if err != nil || !bytes.Equal(first, second) {
			t.Fatalf("re-marshalled token is not a fixed point (%v):\n first  %x\n second %x", err, first, second)
		}
	})
}
