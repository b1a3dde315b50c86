package monitor

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/bdd"
	"repro/internal/fix"
	"repro/internal/relation"
	"repro/internal/suggest"
)

// Typed sentinels for the session state machine, usable with errors.Is.
var (
	// ErrSessionDone reports a Provide on a finished session.
	ErrSessionDone = errors.New("monitor: session already done")
	// ErrArityMismatch reports tuples, attribute lists or value lists
	// whose shape does not fit the schema.
	ErrArityMismatch = errors.New("monitor: arity mismatch")
)

// Session drives the interactive fixing of a single tuple one round at a
// time — the state machine under algorithm CertainFix, exposed for
// frontends that cannot model the user as a callback (forms, REPLs,
// network services). The flow is:
//
//	sess := m.NewSession(t)
//	for !sess.Done() {
//	    attrs := sess.Suggested()          // ask the user about these
//	    err := sess.Provide(attrs, values) // their asserted values
//	    ...
//	}
//	result := sess.Result()
type Session struct {
	m *Monitor
	// d is the deriver view pinned at session start: one master snapshot
	// (epoch) serves the whole interactive lifetime of the tuple, so a
	// concurrent master update can never make rounds of one session
	// disagree about Dm. New sessions — including the per-tuple sessions
	// of FixBatch — pin the then-current epoch.
	d *suggest.Deriver
	// begin is the input as the session received it: with each round's
	// suggestion and assertions, all a token holds (token.go).
	begin   relation.Tuple
	t       relation.Tuple
	zSet    relation.AttrSet
	userSet relation.AttrSet
	autoSet relation.AttrSet
	// sug is the pending suggestion, nil once the session is done.
	sug        []int
	noProgress int
	done       bool
	// rebased marks a session ResumeSession replayed on the master head
	// because its own epoch was evicted (see Fixed).
	rebased  bool
	perRound []RoundStat
	// witnesses is one fix.Witness per autoSet attribute, in firing order
	// — the raw provenance TransFixTrace records. Result materializes the
	// master tuples and (on authenticated snapshots) inclusion proofs.
	witnesses []fix.Witness
}

// NewSession starts a fixing session for one tuple, pinned to the master
// snapshot current now; the input is copied.
func (m *Monitor) NewSession(input relation.Tuple) (*Session, error) {
	r := m.deriver.Sigma().Schema()
	if len(input) != r.Arity() {
		return nil, fmt.Errorf("monitor: tuple arity %d does not match schema %s: %w", len(input), r, ErrArityMismatch)
	}
	return &Session{
		m:     m,
		d:     m.deriver.Pin(),
		begin: input.Clone(),
		t:     input.Clone(),
		sug:   m.first,
	}, nil
}

// Suggested returns the attribute positions the users should assert this
// round (copy). Empty once the session is done.
func (s *Session) Suggested() []int {
	return append([]int(nil), s.sug...)
}

// Done reports whether every attribute is validated (or the round cap
// was hit).
func (s *Session) Done() bool { return s.done }

// Completed reports whether every attribute is validated — Result's
// Completed field without the allocation of building a Result.
func (s *Session) Completed() bool { return s.zSet.Len() == len(s.t) }

// Rounds returns the interaction rounds consumed so far.
func (s *Session) Rounds() int { return len(s.perRound) }

// Epoch returns the epoch of the master snapshot the session is pinned
// to — the epoch a resumed session will try to re-pin (Versioned.At).
func (s *Session) Epoch() uint64 { return s.d.Epoch() }

// Root returns the hex Merkle root of the pinned snapshot, empty when it
// is unauthenticated — the root Result.Provenance proofs verify against.
func (s *Session) Root() string {
	if root, ok := s.d.Master().AuthRoot(); ok {
		return root.String()
	}
	return ""
}

// Tuple returns the current tuple state (copy).
func (s *Session) Tuple() relation.Tuple { return s.t.Clone() }

// Cell returns the current value at position p, read in place.
func (s *Session) Cell(p int) relation.Value { return s.t[p] }

// Validated returns the currently validated attribute set.
func (s *Session) Validated() relation.AttrSet { return s.zSet }

// Fixed returns the attributes the rules fixed in the latest recorded
// round: that round's AutoFixed minus the round before's, empty before
// the first. It reads only the per-round history, so a resumed session
// answers the same as the uninterrupted one. A round writes the cells its
// users asserted and then, through TransFix, exactly these — so a client
// holding the tuple before the round, its own answers and Fixed's cells
// holds Tuple. On a session ResumeSession rebased, whose replay at the
// head may have changed what earlier rounds fixed, Fixed is every
// attribute the users did not assert, so that sum still holds.
func (s *Session) Fixed() relation.AttrSet {
	if s.rebased {
		var open relation.AttrSet
		for p := range s.t {
			if !s.userSet.Has(p) {
				open.Add(p)
			}
		}
		return open
	}
	n := len(s.perRound)
	if n == 0 {
		return relation.AttrSet{}
	}
	var before relation.AttrSet
	if n > 1 {
		before = s.perRound[n-2].AutoFixed
	}
	var fixed relation.AttrSet
	s.perRound[n-1].AutoFixed.Range(func(p int) bool {
		if !before.Has(p) {
			fixed.Add(p)
		}
		return true
	})
	return fixed
}

// Provide runs one round: the users assert t[attrs] = values (aligned
// slices; attrs may differ from Suggested). The session applies the
// assertions, checks consistency, cascades certain fixes (TransFix) and
// prepares the next suggestion.
func (s *Session) Provide(attrs []int, values []relation.Value) error {
	return s.provide(attrs, values, nil)
}

// provide is Provide with the next suggestion drawn through cursor, the
// tuple's position in the monitor's Suggest+ cache that driveSession
// carries across one fix's rounds; nil runs plain Suggest.
func (s *Session) provide(attrs []int, values []relation.Value, cursor *bdd.Cursor) error {
	if s.done {
		return ErrSessionDone
	}
	if len(attrs) != len(values) {
		return fmt.Errorf("monitor: %d attributes but %d values: %w", len(attrs), len(values), ErrArityMismatch)
	}
	if len(attrs) == 0 {
		s.done, s.sug = true, nil // the users declined: stop without completing
		return nil
	}
	// Validate every position before mutating anything: a failed Provide
	// must leave the session exactly as it was, so long-lived sessions
	// (and the service tokens derived from them) can retry after an
	// input error without phantom validations.
	for _, p := range attrs {
		if p < 0 || p >= len(s.t) {
			return fmt.Errorf("monitor: attribute position %d out of range [0, %d): %w", p, len(s.t), ErrArityMismatch)
		}
	}
	conflicted, err := s.apply(attrs, values)
	if err != nil {
		return err
	}
	if s.Completed() || len(s.perRound) >= s.m.maxRounds() {
		s.done, s.sug = true, nil
		return nil
	}

	// Next suggestion: Suggest / Suggest+, the conflict escalations, and
	// the mop-up rule after two consecutive no-progress rounds (see
	// Monitor's documentation).
	if s.noProgress >= 2 {
		s.sug = nil
	} else {
		// Copy before merging: the cached Suggest+ path returns a slice
		// shared with the BDD cache, which concurrent sessions read —
		// appending in place would race on its backing array.
		sug := s.m.nextSuggestion(s.d, s.t, s.zSet, cursor)
		s.sug = appendMissing(appendMissing(make([]int, 0, len(sug)+len(conflicted)), sug), conflicted)
	}
	if len(s.sug) == 0 {
		for p := range s.t {
			if !s.zSet.Has(p) {
				s.sug = append(s.sug, p)
			}
		}
	}
	return nil
}

// apply runs one round on the users' assertions (positions already
// range-checked): write their values and add their positions to Z and to
// the user set, check that t[Z] leads to a unique fix, cascade TransFix,
// and record the round under the pending suggestion. It returns the
// attributes whose applicable rules disagree — routed back to the users
// rather than guessed. Provide follows it with the next suggestion;
// ResumeSession replays a token's rounds with it alone.
func (s *Session) apply(attrs []int, values []relation.Value) ([]int, error) {
	for i, p := range attrs {
		s.t[p] = values[i]
		s.zSet.Add(p)
		s.userSet.Add(p)
	}
	var conflicted []int
	if z := s.zSet.Positions(); s.d.ConsistentRow(z, s.t.Project(z)) {
		fixed, err := fix.TransFixTrace(s.m.graph, s.d.Master(), s.t, &s.zSet, &s.witnesses)
		s.autoSet.AddAll(fixed)
		if len(fixed) == 0 {
			s.noProgress++
		} else {
			s.noProgress = 0
		}
		var ce *fix.ConflictError
		switch {
		case errors.As(err, &ce):
			conflicted = []int{ce.Attr}
		case err != nil:
			return nil, err
		}
	} else {
		conflicted = conflictedAttrs(s.d, s.t, s.zSet)
	}
	s.perRound = append(s.perRound, RoundStat{
		Suggested:     s.sug,
		UserValidated: s.userSet,
		AutoFixed:     s.autoSet,
		Tuple:         s.t.Clone(),
	})
	return conflicted, nil
}

// appendMissing appends the members of add that list lacks, in order.
func appendMissing(list, add []int) []int {
	for _, p := range add {
		if !slices.Contains(list, p) {
			list = append(list, p)
		}
	}
	return list
}

// Result summarizes the session so far (or finally, once Done). It reads
// the master through the pinned deriver s.d — never through the shared
// monitor — so a Result taken from a resumed session can only
// observe the snapshot the session itself is bound to.
func (s *Session) Result() Result {
	res := Result{
		Tuple:         s.t.Clone(),
		Rounds:        len(s.perRound),
		Completed:     s.Completed(),
		UserValidated: s.userSet,
		AutoFixed:     s.autoSet,
		PerRound:      s.perRound,
		Epoch:         s.d.Epoch(),
		Provenance:    s.provenance(),
	}
	if root, ok := s.d.Master().AuthRoot(); ok {
		res.Root = root.String()
	}
	return res
}

// provenance materializes the session's raw witnesses against the pinned
// snapshot: tuple contents always, inclusion proofs when the snapshot is
// authenticated. Ids recorded at fix time are resolved against the same
// snapshot, so they cannot have moved under a later delta. One master
// tuple usually justifies several attributes; it is copied and proved
// once, and its witnesses share the copy.
func (s *Session) provenance() []Witness {
	if len(s.witnesses) == 0 {
		return nil
	}
	dm := s.d.Master()
	out := make([]Witness, len(s.witnesses))
next:
	for i, w := range s.witnesses {
		out[i] = Witness{Attr: w.Attr, Rule: w.Rule, MasterID: w.MasterID}
		for _, seen := range out[:i] {
			if seen.MasterID == w.MasterID {
				out[i].Master, out[i].Proof = seen.Master, seen.Proof
				continue next
			}
		}
		out[i].Master = dm.Tuple(w.MasterID)
		if dm.Authenticated() {
			p, err := dm.ProveTuple(w.MasterID)
			if err != nil {
				// The id came from this snapshot's own match set; failure
				// here is the broken-mirror invariant ProveTuple documents.
				panic(fmt.Sprintf("monitor: witness proof for master id %d: %v", w.MasterID, err))
			}
			out[i].Proof = p
		}
	}
	return out
}
