package monitor

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"runtime/debug"
	"slices"
	"strings"
	"testing"

	"repro/internal/authtree"
	"repro/internal/datagen"
	"repro/internal/master"
	"repro/internal/paperex"
	"repro/internal/relation"
)

// resultWorld is a monitor with inputs and the truths its simulated users
// answer from.
type resultWorld struct {
	name           string
	m              *Monitor
	inputs, truths []relation.Tuple
}

// resultWorlds are the paper's Σ0 over Fig. 1b and a generated HOSP
// world, each over a plain and an authenticated master — the Results of
// the latter carry Merkle proofs.
func resultWorlds(tb testing.TB) []resultWorld {
	tb.Helper()
	var out []resultWorld
	for _, auth := range []bool{false, true} {
		sigma := paperex.Sigma0()
		var opts []master.BuildOption
		if auth {
			opts = append(opts, master.WithAuth())
		}
		pm, err := New(sigma, master.MustNewForRules(paperex.MasterRelation(), sigma, opts...), Config{TokenKey: internalKey})
		if err != nil {
			tb.Fatal(err)
		}
		// t2 is answered from its truth; the others from themselves, which
		// routes t3's conflict back to the users and leaves t4 unfixed.
		truthT2 := relation.StringTuple("Robert", "Brady", "131", "6884563", "1", "51 Elm Row", "Edi", "EH7 4AH", "CD")
		inputs := []relation.Tuple{paperex.InputT1(), paperex.InputT2(), paperex.InputT3(), paperex.InputT4()}
		out = append(out, resultWorld{"paper", pm, inputs, []relation.Tuple{inputs[0], truthT2, inputs[2], inputs[3]}})

		ds, err := datagen.Hosp(datagen.Config{Seed: 1, MasterSize: 300, Tuples: 24, DupRate: 0.3, NoiseRate: 0.2})
		if err != nil {
			tb.Fatal(err)
		}
		if auth {
			ds.Master.Authenticate()
		}
		hm, err := New(ds.Sigma, ds.Master, Config{TokenKey: internalKey})
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, resultWorld{"hosp", hm, ds.Inputs, ds.Truths})
	}
	return out
}

// sessionResults drives every input of w to its end, twice — straight
// through, and suspended to a token and resumed at every round boundary —
// and returns the Result at every boundary of both runs: what
// /v1/result answers mid-session and at the end.
func sessionResults(tb testing.TB, w resultWorld) []Result {
	tb.Helper()
	var out []Result
	for i, input := range w.inputs {
		for _, hop := range []bool{false, true} {
			s, err := w.m.NewSession(input)
			if err != nil {
				tb.Fatal(err)
			}
			for {
				if hop {
					tok, err := s.AppendToken(nil)
					if err != nil {
						tb.Fatal(err)
					}
					if s, err = w.m.ResumeSession(tok, ResumeOptions{}); err != nil {
						tb.Fatal(err)
					}
				}
				out = append(out, s.Result())
				if s.Done() {
					break
				}
				answerTruth(tb, s, w.truths[i])
			}
		}
	}
	return out
}

// FuzzResultJSON throws hostile JSON at Result's decoder, seeded with the
// encoding of every Result the generated sessions produce — paper and
// HOSP, uninterrupted and resumed, plain and authenticated — each of
// which must first decode reflect.DeepEqual to the Result it encodes.
// Arbitrary bytes either fail to decode or decode to a Result that
// encodes, and whose encoding decodes to it again; none may panic, and
// no position may size a set (a hostile one would show as a fuzzer OOM).
func FuzzResultJSON(f *testing.F) {
	for _, w := range resultWorlds(f) {
		for i, r := range sessionResults(f, w) {
			b, err := json.Marshal(r)
			if err != nil {
				f.Fatalf("%s result %d: %v", w.name, i, err)
			}
			var got Result
			if err := json.Unmarshal(b, &got); err != nil {
				f.Fatalf("%s result %d: %v\n%s", w.name, i, err, b)
			}
			if !reflect.DeepEqual(got, r) {
				f.Fatalf("%s result %d changed across JSON:\n got  %+v\n want %+v", w.name, i, got, r)
			}
			f.Add(b)
		}
	}
	f.Add([]byte(wideRound))
	f.Add([]byte(wideValidated))
	f.Fuzz(func(t *testing.T, data []byte) {
		var r Result
		if err := json.Unmarshal(data, &r); err != nil {
			return
		}
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatalf("a decoded result does not encode: %v", err)
		}
		var again Result
		if err := json.Unmarshal(b, &again); err != nil {
			t.Fatalf("a re-encoded result does not decode: %v\n%s", err, b)
		}
		if !reflect.DeepEqual(again, r) {
			t.Fatalf("a decoded result is not a fixed point of the codec:\n was %+v\n now %+v", r, again)
		}
	})
}

// wideRound and wideValidated are results over 70 cells, wider than
// relation.MaxArity, naming position 65 in a round and in the validated
// set: each must be refused before that position reaches a set.
var (
	wideTuple     = `"Tuple":[` + strings.Repeat(`"a",`, 69) + `"a"]`
	wideRound     = `{` + wideTuple + `,"PerRound":[{"Suggested":[65]}]}`
	wideValidated = `{` + wideTuple + `,"UserValidated":[65]}`
)

// TestResultJSONRejectsHostileRounds: positions outside the tuple,
// misaligned cells, malformed witnesses and dangling master indexes are
// errors, not panics or sets sized by a position.
func TestResultJSONRejectsHostileRounds(t *testing.T) {
	for name, body := range map[string]string{
		"suggested past arity":  `{"Tuple":["a"],"PerRound":[{"Suggested":[1]}]}`,
		"negative user member":  `{"Tuple":["a"],"PerRound":[{"Suggested":[0],"User":[-1]}]}`,
		"auto member far out":   `{"Tuple":["a"],"PerRound":[{"Suggested":[0],"Auto":[4611686018427387904]}]}`,
		"overwritten past end":  `{"Tuple":["a"],"PerRound":[{"Suggested":[0],"Attrs":[1],"Values":["b"]}]}`,
		"attrs without values":  `{"Tuple":["a"],"PerRound":[{"Suggested":[0],"Attrs":[0]}]}`,
		"validated set far out": `{"Tuple":["a"],"UserValidated":[4611686018427387904]}`,
		"auto set negative":     `{"Tuple":["a"],"AutoFixed":[-1]}`,
		"witness past arity":    `{"Tuple":["a"],"Provenance":[[1,"r",0]],"Masters":[{"id":0}]}`,
		"delta past arity":      `{"Tuple":["a","b"],"Provenance":[[0,"r",0]],"Masters":[{"id":0,"attrs":[2],"values":["c"]}]}`,
		"delta negative":        `{"Tuple":["a","b"],"Provenance":[[0,"r",0]],"Masters":[{"id":0,"attrs":[-1],"values":["c"]}]}`,
		"delta misaligned":      `{"Tuple":["a","b"],"Provenance":[[0,"r",0]],"Masters":[{"id":0,"attrs":[0,1],"values":["c"]}]}`,
		"delta values only":     `{"Tuple":["a","b"],"Provenance":[[0,"r",0]],"Masters":[{"id":0,"values":["c"]}]}`,
		"tuple and delta":       `{"Tuple":["a","b"],"Provenance":[[0,"r",0]],"Masters":[{"id":0,"tuple":["a","b"],"attrs":[0],"values":["c"]}]}`,
		"tuple and empty delta": `{"Tuple":["a","b"],"Provenance":[[0,"r",0]],"Masters":[{"id":0,"tuple":["a","b"],"attrs":[],"values":[]}]}`,
		"master index past end": `{"Tuple":["a"],"Provenance":[[0,"r",1]],"Masters":[{"id":0}]}`,
		"master index negative": `{"Tuple":["a"],"Provenance":[[0,"r",-1]],"Masters":[{"id":0}]}`,
		"master table missing":  `{"Tuple":["a"],"Provenance":[[0,"r",0]]}`,
		"triple too short":      `{"Tuple":["a"],"Provenance":[[0,"r"]],"Masters":[{"id":0}]}`,
		"triple too long":       `{"Tuple":["a"],"Provenance":[[0,"r",0,0]],"Masters":[{"id":0}]}`,
		"triple attr a string":  `{"Tuple":["a"],"Provenance":[["0","r",0]],"Masters":[{"id":0}]}`,
		"triple rule a number":  `{"Tuple":["a"],"Provenance":[[0,7,0]],"Masters":[{"id":0}]}`,
		"triple index a float":  `{"Tuple":["a"],"Provenance":[[0,"r",0.5]],"Masters":[{"id":0}]}`,
		"triple with a null":    `{"Tuple":["a"],"Provenance":[[null,"r",0]],"Masters":[{"id":0}]}`,
		"triple an object":      `{"Tuple":["a"],"Provenance":[{"attr":0,"rule":"r","master_id":0}],"Masters":[{"id":0}]}`,
		"triple null":           `{"Tuple":["a"],"Provenance":[null],"Masters":[{"id":0}]}`,
		"round past MaxArity":   wideRound,
		"set past MaxArity":     wideValidated,
	} {
		var r Result
		if err := json.Unmarshal([]byte(body), &r); err == nil {
			t.Errorf("%s: decoded to %+v, want an error", name, r)
		}
	}
}

// TestResultJSONForms pins which spelling each part of a session Result
// takes: the paper's Σ0 (R ≠ Rm) keeps every master row in full, HOSP
// ships rows close to the fixed tuple as its cells, and a session result
// never spells out a validated set its rounds imply.
func TestResultJSONForms(t *testing.T) {
	forms := map[string]map[string]int{}
	for _, w := range resultWorlds(t) {
		if forms[w.name] == nil {
			forms[w.name] = map[string]int{}
		}
		for _, r := range sessionResults(t, w) {
			b, err := r.AppendJSON(nil)
			if err != nil {
				t.Fatal(err)
			}
			var wire resultWire
			if err := json.Unmarshal(b, &wire); err != nil {
				t.Fatal(err)
			}
			for _, m := range wire.Masters {
				switch {
				case m.Tuple != nil:
					forms[w.name]["tuple"]++
				case m.Attrs != nil:
					forms[w.name]["delta"]++
				default:
					forms[w.name]["equal"]++
				}
			}
			if wire.UserValidated != nil || wire.AutoFixed != nil {
				t.Errorf("%s: a session result ships a set the rounds imply:\n%s", w.name, b)
			}
		}
	}
	if p := forms["paper"]; p["tuple"] == 0 || p["delta"]+p["equal"] != 0 {
		t.Errorf("paper world master forms %v, want every row in full", p)
	}
	if h := forms["hosp"]; h["delta"] == 0 || h["equal"] == 0 {
		t.Errorf("hosp master forms %v, want rows as cells of the tuple, some equal to it", h)
	}
}

// TestResultJSONGolden pins the bytes of two authenticated final results:
// a paper-world fix, whose master row travels in full, and a HOSP fix,
// whose rows travel as cells of the tuple, equal to it, or in full. -update rewrites them, for a change that
// means to break the wire form.
func TestResultJSONGolden(t *testing.T) {
	for _, w := range resultWorlds(t) {
		r := goldenResult(t, w)
		if r.Root == "" {
			continue
		}
		got, err := r.AppendJSON(nil)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join("testdata", "result_"+w.name+".json")
		if *updateGolden {
			if err := os.WriteFile(path, append(got, '\n'), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, bytes.TrimSuffix(want, []byte("\n"))) {
			t.Errorf("%s result:\n got  %s\n want %s", w.name, got, want)
		}
	}
}

var updateGolden = flag.Bool("update", false, "rewrite testdata/result_*.json")

// goldenResult is the world's finished session, straight through, whose
// provenance cites the most master rows (the first of them).
func goldenResult(tb testing.TB, w resultWorld) Result {
	tb.Helper()
	var best Result
	most := 0
	for i, input := range w.inputs {
		s, err := w.m.NewSession(input)
		if err != nil {
			tb.Fatal(err)
		}
		for !s.Done() {
			answerTruth(tb, s, w.truths[i])
		}
		r := s.Result()
		ids := map[int]bool{}
		for _, p := range r.Provenance {
			ids[p.MasterID] = true
		}
		if len(ids) > most {
			best, most = r, len(ids)
		}
	}
	if most == 0 {
		tb.Fatalf("%s: no session has provenance", w.name)
	}
	return best
}

// The reference: the wire form built as a structure and rendered by
// encoding/json, the baseline BenchmarkResultJSON holds AppendJSON to and
// the oracle TestResultJSONMatchesReference compares its bytes with.
type refResult struct {
	Tuple         relation.Tuple
	Rounds        int
	Completed     bool
	UserValidated *[]int `json:",omitempty"`
	AutoFixed     *[]int `json:",omitempty"`
	PerRound      []refRound
	Epoch         uint64      `json:",omitempty"`
	Root          string      `json:",omitempty"`
	Provenance    [][3]any    `json:",omitempty"`
	Masters       []refMaster `json:",omitempty"`
}

type refRound struct {
	Suggested []int
	User      *[]int           `json:",omitempty"`
	Auto      []int            `json:",omitempty"`
	Attrs     []int            `json:",omitempty"`
	Values    []relation.Value `json:",omitempty"`
}

type refMaster struct {
	ID     int              `json:"id"`
	Tuple  *relation.Tuple  `json:"tuple,omitempty"`
	Attrs  []int            `json:"attrs,omitempty"`
	Values []relation.Value `json:"values,omitempty"`
	Proof  *authtree.Proof  `json:"proof,omitempty"`
}

// referenceJSON renders a session Result (its rounds monotone, its tuples
// of one arity) the way the file comment of result_json.go spells it.
func referenceJSON(r Result) ([]byte, error) {
	w := refResult{Tuple: r.Tuple, Rounds: r.Rounds, Completed: r.Completed, Epoch: r.Epoch, Root: r.Root}
	minus := func(s, prev relation.AttrSet) []int {
		var out []int
		for _, p := range s.Positions() {
			if !prev.Has(p) {
				out = append(out, p)
			}
		}
		return out
	}
	cells := func(cur, next relation.Tuple) (ps []int, vs []relation.Value) {
		for p := range cur {
			if cur[p] != next[p] {
				ps, vs = append(ps, p), append(vs, cur[p])
			}
		}
		return ps, vs
	}
	if r.PerRound != nil {
		w.PerRound = make([]refRound, len(r.PerRound))
	}
	var prev RoundStat
	for i, rs := range r.PerRound {
		next := r.Tuple
		if i+1 < len(r.PerRound) {
			next = r.PerRound[i+1].Tuple
		}
		jr := refRound{Suggested: rs.Suggested, Auto: minus(rs.AutoFixed, prev.AutoFixed)}
		if user := minus(rs.UserValidated, prev.UserValidated); !slices.Equal(user, relation.NewAttrSet(rs.Suggested...).Positions()) {
			if user == nil {
				user = []int{}
			}
			jr.User = &user
		}
		jr.Attrs, jr.Values = cells(rs.Tuple, next)
		w.PerRound[i] = jr
		prev = rs
	}
	if !r.UserValidated.Equal(prev.UserValidated) {
		ps := r.UserValidated.Positions()
		w.UserValidated = &ps
	}
	if !r.AutoFixed.Equal(prev.AutoFixed) {
		ps := r.AutoFixed.Positions()
		w.AutoFixed = &ps
	}
	var firsts []*Witness
	for i := range r.Provenance {
		p := &r.Provenance[i]
		m := slices.IndexFunc(firsts, func(q *Witness) bool {
			return q.MasterID == p.MasterID && reflect.DeepEqual(q.Master, p.Master) && reflect.DeepEqual(q.Proof, p.Proof)
		})
		if m < 0 {
			m = len(firsts)
			firsts = append(firsts, p)
			e := refMaster{ID: p.MasterID, Tuple: &p.Master, Proof: p.Proof}
			if len(p.Master) == len(r.Tuple) && len(r.Tuple) > 0 {
				if ps, vs := cells(p.Master, r.Tuple); 2*len(ps) <= len(r.Tuple) {
					e.Tuple, e.Attrs, e.Values = nil, ps, vs
				}
			}
			w.Masters = append(w.Masters, e)
		}
		w.Provenance = append(w.Provenance, [3]any{p.Attr, p.Rule, m})
	}
	return json.Marshal(&w)
}

// TestResultJSONMatchesReference: AppendJSON writes, byte for byte, what
// encoding/json makes of the reference structure, for every session
// Result of every world.
func TestResultJSONMatchesReference(t *testing.T) {
	for _, w := range resultWorlds(t) {
		for i, r := range sessionResults(t, w) {
			got, err := r.AppendJSON(nil)
			if err != nil {
				t.Fatal(err)
			}
			want, err := referenceJSON(r)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s result %d:\n got  %s\n want %s", w.name, i, got, want)
			}
		}
	}
}

// BenchmarkResultJSON encodes the HOSP session Results — plain and
// authenticated, mid-session and final — with AppendJSON into a reused
// buffer (what /v1/result does with its pooled reply buffer) and with the
// encoding/json reference. GC is off while timing, so json.Marshal's
// pooled encoder state is never dropped and allocs/op repeats exactly.
func BenchmarkResultJSON(b *testing.B) {
	var results []Result
	for _, w := range resultWorlds(b) {
		if w.name == "hosp" {
			results = append(results, sessionResults(b, w)...)
		}
	}
	for _, enc := range []struct {
		name   string
		encode func(r *Result, buf []byte) ([]byte, error)
	}{
		{"append", func(r *Result, buf []byte) ([]byte, error) { return r.AppendJSON(buf[:0]) }},
		{"reference", func(r *Result, _ []byte) ([]byte, error) { return referenceJSON(*r) }},
	} {
		b.Run(enc.name, func(b *testing.B) {
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			var buf []byte
			size := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				if buf, err = enc.encode(&results[i%len(results)], buf); err != nil {
					b.Fatal(err)
				}
				size += len(buf)
			}
			b.ReportMetric(float64(size)/float64(b.N), "B/result")
		})
	}
}
