package monitor

// The JSON form of a Result — what /v1/result ships and what non-Go
// clients read. It is the struct's own field names with one change: a
// witness carries only ids, and every distinct master tuple the fix
// consumed (with its inclusion proof on an authenticated snapshot)
// appears once, in a table keyed by master id:
//
//	{"Tuple": [...], "Rounds": 2, "Completed": true,
//	 "UserValidated": [0, 3], "AutoFixed": [1, 2],
//	 "PerRound": [{"Suggested": [...], "UserValidated": [...],
//	               "AutoFixed": [...], "Tuple": [...]}],
//	 "Epoch": 7, "Root": "<hex, empty when unauthenticated>",
//	 "Provenance": [{"attr": 1, "rule": "phi1", "master_id": 17},
//	                {"attr": 2, "rule": "phi2", "master_id": 17}],
//	 "Masters": [{"id": 17, "tuple": [...], "proof": {...}}]}
//
// One master tuple typically justifies several attributes, so shipping
// it (and its proof, by far the largest part) per witness multiplied the
// reply. Decoding rehydrates Witness.Master and Witness.Proof from the
// table, so Go callers — VerifyFix among them — see the Result exactly as
// Session.Result built it.

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
	UserValidated relation.AttrSet
	AutoFixed     relation.AttrSet
	PerRound      []RoundStat
	Epoch         uint64
	Root          string
	Provenance    []witnessJSON
	Masters       []masterJSON `json:",omitempty"`
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
func (r Result) MarshalJSON() ([]byte, error) {
	w := resultJSON{
		Tuple: r.Tuple, Rounds: r.Rounds, Completed: r.Completed,
		UserValidated: r.UserValidated, AutoFixed: r.AutoFixed, PerRound: r.PerRound,
		Epoch: r.Epoch, Root: r.Root,
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

// UnmarshalJSON parses the form MarshalJSON writes. Witnesses of one
// master id share the rehydrated tuple and proof.
func (r *Result) UnmarshalJSON(b []byte) error {
	var w resultJSON
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	*r = Result{
		Tuple: w.Tuple, Rounds: w.Rounds, Completed: w.Completed,
		UserValidated: w.UserValidated, AutoFixed: w.AutoFixed, PerRound: w.PerRound,
		Epoch: w.Epoch, Root: w.Root,
	}
	if len(w.Provenance) > 0 {
		r.Provenance = make([]Witness, len(w.Provenance))
	}
	for i, p := range w.Provenance {
		m := findMaster(w.Masters, p.MasterID)
		if m == nil {
			return fmt.Errorf("monitor: result: witness %d names master id %d, which the master table lacks", i, p.MasterID)
		}
		r.Provenance[i] = Witness{Attr: p.Attr, Rule: p.Rule, MasterID: p.MasterID, Master: m.Tuple, Proof: m.Proof}
	}
	return nil
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
