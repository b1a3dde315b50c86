package monitor

// The JSON form of a Result — what /v1/result ships and what non-Go
// clients read. It carries the certificate of a fix once and leaves out
// whatever the rest of the body already implies:
//
//	{"Tuple": ["A1", "9.50", "widget"], "Rounds": 2, "Completed": true,
//	 "PerRound": [{"Suggested": [0], "Auto": [1], "Attrs": [2], "Values": ["wrong"]},
//	              {"Suggested": [2]}],
//	 "Epoch": 7, "Root": "<hex>",
//	 "Provenance": [[1, "price", 0]],
//	 "Masters": [{"id": 17, "attrs": [2], "values": ["gadget"], "proof": "<base64>"}]}
//
// Tuple, Rounds, Completed, Epoch and Root are the struct's fields;
// Epoch is left out when it is 0, and Root when it is empty (an
// unauthenticated snapshot). The per-round history travels the way the
// session token stores it (token.go): a round's User and Auto list only the members it added to
// the cumulative UserValidated and AutoFixed sets, and its end-of-round
// tuple is the cells a later round overwrote — Attrs and Values, aligned
// — walking back from Tuple, so the last round's entry carries none.
// User is left out when it is the set of the round's Suggested (the
// users asserted what was asked), and present otherwise, as [] when the
// round added nothing: {"Suggested": [3], "User": [3, 5]}.
// UserValidated and AutoFixed are left out when each is the union of the
// rounds' User / Auto lists, and present otherwise ("AutoFixed": []).
//
// Provenance is one [attr, "rule", m] triple per witness, in firing
// order; m indexes Masters, the table of the master tuples the fix
// consumed, each with its inclusion proof on an authenticated snapshot —
// a tuple and its proof (by far the largest part) once, however many
// attributes they justify. A Masters entry is its "id", the row, and
// "proof" when there is one. The row is spelled in full, "tuple": [...],
// or — when it has Tuple's arity and differs from it in at most half the
// cells — as Tuple with the cells "attrs" replaced by "values"; with
// neither key the row is Tuple itself. Rules copy master cells into the
// tuple, so a witnessed row is mostly the fixed tuple; where R and Rm
// differ (the paper's Σ0) rows keep the full form.
//
// A proof is one base64 string, authtree.Proof's compact binary layout
// (key, leaf entries unless the leaf holds the tuple alone, a bitmap of
// the non-empty siblings and those siblings).
//
// AppendJSON writes the form straight into the caller's buffer. Decoding
// rebuilds each RoundStat and rehydrates Witness.Master and Witness.Proof
// from the table, so Go callers — VerifyFix among them — see the Result
// exactly as Session.Result built it (reflect.DeepEqual; FuzzResultJSON).
// Every position and index is range-checked, so hostile JSON is an error,
// never a panic or a set sized by a position.

import (
	"encoding/json"
	"fmt"
	"slices"
	"strconv"

	"repro/internal/authtree"
	"repro/internal/relation"
)

// MarshalJSON renders the result in the form the file comment describes.
// It is AppendJSON(nil).
func (r Result) MarshalJSON() ([]byte, error) {
	return r.AppendJSON(nil)
}

// AppendJSON appends the result's JSON form to b. It fails on a history
// no session records — a round whose sets lose members of the round
// before, or whose tuple is not of Tuple's arity — and on a malformed
// proof.
func (r *Result) AppendJSON(b []byte) ([]byte, error) {
	b = append(b, `{"Tuple":`...)
	b = appendValues(b, r.Tuple)
	b = append(b, `,"Rounds":`...)
	b = strconv.AppendInt(b, int64(r.Rounds), 10)
	b = append(b, `,"Completed":`...)
	b = strconv.AppendBool(b, r.Completed)
	var last RoundStat
	if n := len(r.PerRound); n > 0 {
		last = r.PerRound[n-1]
	}
	if !r.UserValidated.Equal(last.UserValidated) {
		b = appendAdded(append(b, `,"UserValidated":`...), r.UserValidated, relation.AttrSet{})
	}
	if !r.AutoFixed.Equal(last.AutoFixed) {
		b = appendAdded(append(b, `,"AutoFixed":`...), r.AutoFixed, relation.AttrSet{})
	}
	b = append(b, `,"PerRound":`...)
	if r.PerRound == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		var prev RoundStat
		for i, rs := range r.PerRound {
			if !rs.UserValidated.ContainsSet(prev.UserValidated) || !rs.AutoFixed.ContainsSet(prev.AutoFixed) {
				return nil, fmt.Errorf("monitor: result: round %d's sets drop members of the round before", i)
			}
			next := r.Tuple
			if i+1 < len(r.PerRound) {
				next = r.PerRound[i+1].Tuple
			}
			if len(rs.Tuple) != len(r.Tuple) || len(next) != len(r.Tuple) {
				return nil, fmt.Errorf("monitor: result: a round's tuple does not have the result's arity %d", len(r.Tuple))
			}
			if i > 0 {
				b = append(b, ',')
			}
			b = appendInts(append(b, `{"Suggested":`...), rs.Suggested)
			if !addedIsSetOf(rs.UserValidated, prev.UserValidated, rs.Suggested) {
				b = appendAdded(append(b, `,"User":`...), rs.UserValidated, prev.UserValidated)
			}
			if !prev.AutoFixed.ContainsSet(rs.AutoFixed) {
				b = appendAdded(append(b, `,"Auto":`...), rs.AutoFixed, prev.AutoFixed)
			}
			b = appendCells(b, `,"Attrs":`, `,"Values":`, rs.Tuple, next)
			b = append(b, '}')
			prev = rs
		}
		b = append(b, ']')
	}
	if r.Epoch != 0 {
		b = strconv.AppendUint(append(b, `,"Epoch":`...), r.Epoch, 10)
	}
	if r.Root != "" {
		b = relation.String(r.Root).AppendJSON(append(b, `,"Root":`...))
	}
	return r.appendProvenance(b)
}

// appendProvenance appends the Provenance triples and the Masters table
// and closes the object. A table entry is one distinct (id, row, proof):
// witnesses of one master tuple share it.
func (r *Result) appendProvenance(b []byte) ([]byte, error) {
	if len(r.Provenance) == 0 {
		return append(b, '}'), nil
	}
	// entries[j] is the first witness of Masters[j].
	entries := make([]int, 0, 8)
	b = append(b, `,"Provenance":[`...)
	for i := range r.Provenance {
		w := &r.Provenance[i]
		m := slices.IndexFunc(entries, func(j int) bool { return sameMaster(&r.Provenance[j], w) })
		if m < 0 {
			m = len(entries)
			entries = append(entries, i)
		}
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(append(b, '['), int64(w.Attr), 10)
		b = relation.String(w.Rule).AppendJSON(append(b, ','))
		b = append(strconv.AppendInt(append(b, ','), int64(m), 10), ']')
	}
	b = append(b, `],"Masters":[`...)
	for j, i := range entries {
		w := &r.Provenance[i]
		if j > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(append(b, `{"id":`...), int64(w.MasterID), 10)
		if isDelta(w.Master, r.Tuple) {
			b = appendCells(b, `,"attrs":`, `,"values":`, w.Master, r.Tuple)
		} else {
			b = appendValues(append(b, `,"tuple":`...), w.Master)
		}
		if w.Proof != nil {
			var err error
			if b, err = w.Proof.AppendJSON(append(b, `,"proof":`...)); err != nil {
				return nil, err
			}
		}
		b = append(b, '}')
	}
	return append(b, "]}"...), nil
}

// sameMaster reports whether two witnesses cite one table entry: the same
// id, row and proof. Witnesses a session built share the row and the
// proof; comparing content keeps a Result that gives one id two rows
// intact across the codec.
func sameMaster(a, b *Witness) bool {
	if a.MasterID != b.MasterID || (a.Master == nil) != (b.Master == nil) || !a.Master.Equal(b.Master) {
		return false
	}
	p, q := a.Proof, b.Proof
	return p == q || p != nil && q != nil && p.Key == q.Key &&
		slices.Equal(p.Entries, q.Entries) && slices.Equal(p.Siblings, q.Siblings)
}

// isDelta reports whether master travels as cells of t: it has t's
// (positive) arity and differs from it in at most half the cells.
func isDelta(master, t relation.Tuple) bool {
	if len(master) != len(t) || len(t) == 0 {
		return false
	}
	differ := 0
	for p := range t {
		if master[p] != t[p] {
			differ++
		}
	}
	return 2*differ <= len(t)
}

// appendCells appends the positions where cur differs from next and
// cur's values there, under the two keys given with their leading comma:
// a round's tuple is the cells a later round overwrote, a master row the
// cells where it differs from Tuple. Nothing when the two agree; they are
// of one arity.
func appendCells(b []byte, attrsKey, valuesKey string, cur, next relation.Tuple) []byte {
	if slices.Equal(cur, next) {
		return b
	}
	b = append(b, attrsKey...)
	sep := byte('[')
	for p := range cur {
		if cur[p] != next[p] {
			b = strconv.AppendInt(append(b, sep), int64(p), 10)
			sep = ','
		}
	}
	b = append(append(b, ']'), valuesKey...)
	sep = '['
	for p := range cur {
		if cur[p] != next[p] {
			b = cur[p].AppendJSON(append(b, sep))
			sep = ','
		}
	}
	return append(b, ']')
}

// appendValues appends a JSON array of values, null for a nil slice.
func appendValues(b []byte, vs []relation.Value) []byte {
	if vs == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, v := range vs {
		if i > 0 {
			b = append(b, ',')
		}
		b = v.AppendJSON(b)
	}
	return append(b, ']')
}

// appendInts appends a JSON array of positions, null for a nil slice.
func appendInts(b []byte, ps []int) []byte {
	if ps == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, p := range ps {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(p), 10)
	}
	return append(b, ']')
}

// appendAdded appends the members of set that prev lacks, ascending, as
// a JSON array.
func appendAdded(b []byte, set, prev relation.AttrSet) []byte {
	b = append(b, '[')
	n := 0
	set.Range(func(p int) bool {
		if !prev.Has(p) {
			if n > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(p), 10)
			n++
		}
		return true
	})
	return append(b, ']')
}

// addedIsSetOf reports whether the members of set that prev lacks are
// exactly the positions of ps — a round's User when it is its Suggested.
func addedIsSetOf(set, prev relation.AttrSet, ps []int) bool {
	for _, p := range ps {
		if p < 0 || !set.Has(p) || prev.Has(p) {
			return false
		}
	}
	all := true
	set.Range(func(p int) bool {
		all = prev.Has(p) || slices.Contains(ps, p)
		return all
	})
	return all
}

// resultWire is the decoder's view of the form: a pointer or raw field is
// one whose absence says something.
type resultWire struct {
	Tuple         relation.Tuple
	Rounds        int
	Completed     bool
	UserValidated *[]int
	AutoFixed     *[]int
	PerRound      []roundWire
	Epoch         uint64
	Root          string
	Provenance    []witnessWire
	Masters       []masterWire
}

type roundWire struct {
	Suggested []int
	User      *[]int
	Auto      []int
	Attrs     []int
	Values    []relation.Value
}

// witnessWire is one [attr, "rule", m] triple.
type witnessWire struct {
	attr   int
	rule   string
	master int
}

type masterWire struct {
	ID     int              `json:"id"`
	Tuple  json.RawMessage  `json:"tuple"`
	Attrs  []int            `json:"attrs"`
	Values []relation.Value `json:"values"`
	Proof  *authtree.Proof  `json:"proof"`
}

// UnmarshalJSON parses a triple: exactly three elements, an integer, a
// string and an integer.
func (w *witnessWire) UnmarshalJSON(b []byte) error {
	var parts []json.RawMessage
	if err := json.Unmarshal(b, &parts); err != nil {
		return fmt.Errorf("monitor: result: witness: %w", err)
	}
	bad := len(parts) != 3
	for i := 0; !bad && i < 3; i++ {
		bad = string(parts[i]) == "null"
	}
	if bad || json.Unmarshal(parts[0], &w.attr) != nil || json.Unmarshal(parts[1], &w.rule) != nil ||
		json.Unmarshal(parts[2], &w.master) != nil {
		return fmt.Errorf(`monitor: result: witness %s is not [attr, "rule", master index]`, b)
	}
	return nil
}

// UnmarshalJSON parses the form AppendJSON writes. Witnesses of one
// Masters entry share the rehydrated row and proof.
func (r *Result) UnmarshalJSON(b []byte) error {
	var w resultWire
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	arity := len(w.Tuple)
	if arity > relation.MaxArity {
		return fmt.Errorf("monitor: result: tuple of %d cells is wider than %d attributes", arity, relation.MaxArity)
	}
	outOfRange := func(where string, p int) error {
		return fmt.Errorf("monitor: result: %s: position %d out of range [0, %d)", where, p, arity)
	}
	res := Result{Tuple: w.Tuple, Rounds: w.Rounds, Completed: w.Completed, Epoch: w.Epoch, Root: w.Root}
	if w.PerRound != nil {
		res.PerRound = make([]RoundStat, len(w.PerRound))
	}
	var prev RoundStat
	for i, jr := range w.PerRound {
		user := jr.Suggested
		if jr.User != nil {
			user = *jr.User
		}
		if p, ok := inRange(arity, jr.Suggested, user, jr.Auto, jr.Attrs); !ok {
			return outOfRange(fmt.Sprintf("round %d", i), p)
		}
		if len(jr.Attrs) != len(jr.Values) {
			return fmt.Errorf("monitor: result: round %d has %d attrs but %d values", i, len(jr.Attrs), len(jr.Values))
		}
		prev = RoundStat{
			Suggested:     jr.Suggested,
			UserValidated: prev.UserValidated.Union(relation.NewAttrSet(user...)),
			AutoFixed:     prev.AutoFixed.Union(relation.NewAttrSet(jr.Auto...)),
		}
		res.PerRound[i] = prev
	}
	next := w.Tuple
	for i := len(w.PerRound) - 1; i >= 0; i-- {
		t := next.Clone()
		for j, p := range w.PerRound[i].Attrs {
			t[p] = w.PerRound[i].Values[j]
		}
		res.PerRound[i].Tuple = t
		next = t
	}
	// Absent sets are the union of the rounds' lists.
	res.UserValidated, res.AutoFixed = prev.UserValidated, prev.AutoFixed
	if p, ok := inRange(arity, deref(w.UserValidated), deref(w.AutoFixed)); !ok {
		return outOfRange("validated sets", p)
	}
	if w.UserValidated != nil {
		res.UserValidated = relation.NewAttrSet(*w.UserValidated...)
	}
	if w.AutoFixed != nil {
		res.AutoFixed = relation.NewAttrSet(*w.AutoFixed...)
	}
	var err error
	masters := make([]relation.Tuple, len(w.Masters))
	for j, m := range w.Masters {
		if masters[j], err = m.row(w.Tuple); err != nil {
			return fmt.Errorf("monitor: result: master %d: %w", j, err)
		}
	}
	if len(w.Provenance) > 0 {
		res.Provenance = make([]Witness, len(w.Provenance))
	}
	for i, p := range w.Provenance {
		if p.attr < 0 || p.attr >= arity {
			return outOfRange(fmt.Sprintf("witness %d", i), p.attr)
		}
		if p.master < 0 || p.master >= len(masters) {
			return fmt.Errorf("monitor: result: witness %d cites master %d of a table of %d", i, p.master, len(masters))
		}
		m := &w.Masters[p.master]
		res.Provenance[i] = Witness{Attr: p.attr, Rule: p.rule, MasterID: m.ID, Master: masters[p.master], Proof: m.Proof}
	}
	*r = res
	return nil
}

// row rebuilds the entry's master row against the result's tuple t.
func (m *masterWire) row(t relation.Tuple) (relation.Tuple, error) {
	if m.Tuple != nil {
		if m.Attrs != nil || m.Values != nil {
			return nil, fmt.Errorf("both a tuple and cells of the result's")
		}
		var row relation.Tuple
		if err := json.Unmarshal(m.Tuple, &row); err != nil {
			return nil, err
		}
		return row, nil
	}
	if len(m.Attrs) != len(m.Values) {
		return nil, fmt.Errorf("%d attrs but %d values", len(m.Attrs), len(m.Values))
	}
	if p, ok := inRange(len(t), m.Attrs); !ok {
		return nil, fmt.Errorf("position %d out of range [0, %d)", p, len(t))
	}
	row := t.Clone()
	for k, p := range m.Attrs {
		row[p] = m.Values[k]
	}
	return row, nil
}

// deref is the list p points to, nil for none.
func deref(p *[]int) []int {
	if p == nil {
		return nil
	}
	return *p
}

// inRange reports whether every position of the lists lies in [0, arity),
// returning the first one that does not.
func inRange(arity int, lists ...[]int) (int, bool) {
	for _, ps := range lists {
		for _, p := range ps {
			if p < 0 || p >= arity {
				return p, false
			}
		}
	}
	return 0, true
}
