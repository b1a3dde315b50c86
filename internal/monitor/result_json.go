package monitor

// The JSON form of a Result — what /v1/result ships and what non-Go
// clients read. It is the struct's own field names with two changes.
// First, a witness carries only ids, and every distinct master tuple the
// fix consumed (with its inclusion proof on an authenticated snapshot)
// appears once, in a table keyed by master id. Second, the per-round
// history travels the way the session token stores it (token.go): a
// round's User and Auto list only the members it added to the cumulative
// UserValidated and AutoFixed sets, and its end-of-round tuple is the
// cells a later round overwrote — Attrs and Values, aligned — walking
// back from Tuple, so the last round's entry carries none:
//
//	{"Tuple": ["A1", "9.50", "widget"], "Rounds": 2, "Completed": true,
//	 "UserValidated": [0, 2], "AutoFixed": [1],
//	 "PerRound": [{"Suggested": [0], "User": [0], "Auto": [1],
//	               "Attrs": [2], "Values": ["wrong"]},
//	              {"Suggested": [2], "User": [2]}],
//	 "Epoch": 7, "Root": "<hex, empty when unauthenticated>",
//	 "Provenance": [{"attr": 1, "rule": "price", "master_id": 17}],
//	 "Masters": [{"id": 17, "tuple": [...], "proof": "<base64>"}]}
//
// A proof is one base64 string, authtree.Proof's compact binary layout
// (key, leaf entries unless the leaf holds the tuple alone, a bitmap of
// the non-empty siblings and those siblings). One master tuple typically
// justifies several attributes, so shipping it (and its proof, by far the
// largest part) per witness multiplied the reply; and every round's full
// tuple repeated what Tuple already says.
// Decoding rebuilds each RoundStat and rehydrates Witness.Master and
// Witness.Proof from the table, so Go callers — VerifyFix among them —
// see the Result exactly as Session.Result built it (reflect.DeepEqual;
// FuzzResultJSON). Every position is range-checked against Tuple, so
// hostile JSON is an error, never a panic or a set sized by a position.

import (
	"encoding/json"
	"fmt"

	"repro/internal/authtree"
	"repro/internal/relation"
)

type resultJSON struct {
	Tuple         relation.Tuple
	Rounds        int
	Completed     bool
	UserValidated []int
	AutoFixed     []int
	PerRound      []roundJSON
	Epoch         uint64
	Root          string
	Provenance    []witnessJSON
	Masters       []masterJSON `json:",omitempty"`
}

// roundJSON is one RoundStat as deltas: what the round added to the two
// sets, and the cells of its tuple that a later round overwrote.
type roundJSON struct {
	Suggested []int
	User      []int            `json:",omitempty"`
	Auto      []int            `json:",omitempty"`
	Attrs     []int            `json:",omitempty"`
	Values    []relation.Value `json:",omitempty"`
}

type witnessJSON struct {
	Attr     int    `json:"attr"`
	Rule     string `json:"rule"`
	MasterID int    `json:"master_id"`
}

type masterJSON struct {
	ID    int             `json:"id"`
	Tuple relation.Tuple  `json:"tuple"`
	Proof *authtree.Proof `json:"proof,omitempty"`
}

// MarshalJSON renders the result in the form the file comment describes.
// It fails on a history no session records: a round whose sets lose
// members of the round before, or whose tuple is not of Tuple's arity.
func (r Result) MarshalJSON() ([]byte, error) {
	w := resultJSON{
		Tuple: r.Tuple, Rounds: r.Rounds, Completed: r.Completed,
		UserValidated: r.UserValidated.Positions(), AutoFixed: r.AutoFixed.Positions(),
		Epoch: r.Epoch, Root: r.Root,
	}
	if r.PerRound != nil {
		w.PerRound = make([]roundJSON, len(r.PerRound))
	}
	var prev RoundStat
	for i, rs := range r.PerRound {
		user, okUser := added(rs.UserValidated, prev.UserValidated)
		auto, okAuto := added(rs.AutoFixed, prev.AutoFixed)
		if !okUser || !okAuto {
			return nil, fmt.Errorf("monitor: result: round %d's sets drop members of the round before", i)
		}
		w.PerRound[i] = roundJSON{Suggested: rs.Suggested, User: user, Auto: auto}
		prev = rs
	}
	next := r.Tuple
	for i := len(r.PerRound) - 1; i >= 0; i-- {
		cur := r.PerRound[i].Tuple
		if len(cur) != len(next) {
			return nil, fmt.Errorf("monitor: result: round %d's tuple has arity %d, the result's %d", i, len(cur), len(next))
		}
		overwritten(cur, next).Range(func(p int) bool {
			w.PerRound[i].Attrs = append(w.PerRound[i].Attrs, p)
			w.PerRound[i].Values = append(w.PerRound[i].Values, cur[p])
			return true
		})
		next = cur
	}
	if len(r.Provenance) > 0 {
		w.Provenance = make([]witnessJSON, len(r.Provenance))
	}
	for i, p := range r.Provenance {
		w.Provenance[i] = witnessJSON{Attr: p.Attr, Rule: p.Rule, MasterID: p.MasterID}
		if findMaster(w.Masters, p.MasterID) == nil {
			w.Masters = append(w.Masters, masterJSON{ID: p.MasterID, Tuple: p.Master, Proof: p.Proof})
		}
	}
	return json.Marshal(&w)
}

// added returns the members of set that prev lacks, and whether set
// holds all of prev's.
func added(set, prev relation.AttrSet) ([]int, bool) {
	var out []int
	set.Range(func(p int) bool {
		if !prev.Has(p) {
			out = append(out, p)
		}
		return true
	})
	return out, set.ContainsSet(prev)
}

// overwritten returns the positions where a round's tuple cur differs
// from next, the tuple after it (the result's, after the last round): the
// cells a later round overwrote, which is how the JSON stores a round's
// tuple. The two are of one arity.
func overwritten(cur, next relation.Tuple) relation.AttrSet {
	var changed relation.AttrSet
	for p := range cur {
		if cur[p] != next[p] {
			changed.Add(p)
		}
	}
	return changed
}

// UnmarshalJSON parses the form MarshalJSON writes. Witnesses of one
// master id share the rehydrated tuple and proof.
func (r *Result) UnmarshalJSON(b []byte) error {
	var w resultJSON
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	arity := len(w.Tuple)
	outOfRange := func(where string, p int) error {
		return fmt.Errorf("monitor: result: %s: position %d out of range [0, %d)", where, p, arity)
	}
	if p, ok := inRange(arity, w.UserValidated, w.AutoFixed); !ok {
		return outOfRange("validated sets", p)
	}
	res := Result{
		Tuple: w.Tuple, Rounds: w.Rounds, Completed: w.Completed,
		UserValidated: relation.NewAttrSet(w.UserValidated...), AutoFixed: relation.NewAttrSet(w.AutoFixed...),
		Epoch: w.Epoch, Root: w.Root,
	}
	if w.PerRound != nil {
		res.PerRound = make([]RoundStat, len(w.PerRound))
	}
	var prev RoundStat
	for i, jr := range w.PerRound {
		if p, ok := inRange(arity, jr.Suggested, jr.User, jr.Auto, jr.Attrs); !ok {
			return outOfRange(fmt.Sprintf("round %d", i), p)
		}
		if len(jr.Attrs) != len(jr.Values) {
			return fmt.Errorf("monitor: result: round %d has %d attrs but %d values", i, len(jr.Attrs), len(jr.Values))
		}
		prev = RoundStat{
			Suggested:     jr.Suggested,
			UserValidated: prev.UserValidated.Union(relation.NewAttrSet(jr.User...)),
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
	if len(w.Provenance) > 0 {
		res.Provenance = make([]Witness, len(w.Provenance))
	}
	for i, p := range w.Provenance {
		if p.Attr < 0 || p.Attr >= arity {
			return outOfRange(fmt.Sprintf("witness %d", i), p.Attr)
		}
		m := findMaster(w.Masters, p.MasterID)
		if m == nil {
			return fmt.Errorf("monitor: result: witness %d names master id %d, which the master table lacks", i, p.MasterID)
		}
		res.Provenance[i] = Witness{Attr: p.Attr, Rule: p.Rule, MasterID: p.MasterID, Master: m.Tuple, Proof: m.Proof}
	}
	*r = res
	return nil
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

// findMaster scans the table for id: a fix consumes a handful of master
// tuples, so a scan beats a map.
func findMaster(ms []masterJSON, id int) *masterJSON {
	for i := range ms {
		if ms[i].ID == id {
			return &ms[i]
		}
	}
	return nil
}
