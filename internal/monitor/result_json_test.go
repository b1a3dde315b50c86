package monitor

import (
	"encoding/json"
	"reflect"
	"testing"

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

// TestResultJSONRejectsHostileRounds: positions outside the tuple and
// misaligned cells are errors, not panics or sets sized by a position.
func TestResultJSONRejectsHostileRounds(t *testing.T) {
	for name, body := range map[string]string{
		"suggested past arity":  `{"Tuple":["a"],"PerRound":[{"Suggested":[1]}]}`,
		"negative user member":  `{"Tuple":["a"],"PerRound":[{"Suggested":[0],"User":[-1]}]}`,
		"auto member far out":   `{"Tuple":["a"],"PerRound":[{"Suggested":[0],"Auto":[4611686018427387904]}]}`,
		"overwritten past end":  `{"Tuple":["a"],"PerRound":[{"Suggested":[0],"Attrs":[1],"Values":["b"]}]}`,
		"attrs without values":  `{"Tuple":["a"],"PerRound":[{"Suggested":[0],"Attrs":[0]}]}`,
		"validated set far out": `{"Tuple":["a"],"UserValidated":[4611686018427387904]}`,
		"witness past arity":    `{"Tuple":["a"],"Provenance":[{"attr":1,"rule":"r","master_id":0}],"Masters":[{"id":0,"tuple":["a"]}]}`,
	} {
		var r Result
		if err := json.Unmarshal([]byte(body), &r); err == nil {
			t.Errorf("%s: decoded to %+v, want an error", name, r)
		}
	}
}
