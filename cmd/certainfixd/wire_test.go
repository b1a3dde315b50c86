package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/datagen"
	"repro/pkg/certainfix"
)

// TestWireBudget pins what a fix costs on the wire, in the style of
// TestTokenSizeBudget: the request and reply bodies of begin, every
// answer and the final result, for generated HOSP sessions driven through
// the handler the way the benchmark client drives them. A session reply
// carries what its round changed, never the tuple or the attribute
// names, and none of what the session implies: no false flag, no zero
// count or epoch, no suggestion once done, no base64 padding. Along the
// way the client's reconstruction — the begin tuple, its answers and
// every reply's fixed cells — must equal /v1/result's Tuple after every
// round. The bound leaves a quarter of headroom over what this protocol
// measures (3,035 B per fix; replies that spelled out every default, with
// format-5 tokens and a result that spelled out "Epoch":0,"Root":"",
// took 3,273 B; tokens that wrote every begin cell as itself 3,898 B; and
// replies that resent the tuple and the names, with a result that
// repeated every round's tuple, 5,725 B): a regression past it is a
// protocol change, not noise.
func TestWireBudget(t *testing.T) {
	ds, err := datagen.Hosp(datagen.Config{Seed: 1, MasterSize: 1000, Tuples: 200, DupRate: 0.3, NoiseRate: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := certainfix.New(ds.Sigma, ds.Master.Relation())
	if err != nil {
		t.Fatal(err)
	}
	h := newHandler(sys)
	total := 0
	// exchange posts body to path and returns the reply body; counted
	// exchanges are the protocol's, the others this test's own checks.
	exchange := func(path string, body any, counted bool) []byte {
		t.Helper()
		req, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(req)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: HTTP %d %s", path, rec.Code, rec.Body)
		}
		if counted {
			total += len(req) + rec.Body.Len()
		}
		return rec.Body.Bytes()
	}
	reply := func(path string, body any) wireSession {
		t.Helper()
		raw := exchange(path, body, true)
		var keys map[string]json.RawMessage
		if err := json.Unmarshal(raw, &keys); err != nil {
			t.Fatal(err)
		}
		for _, k := range []string{"tuple", "suggestedAttrs"} {
			if _, ok := keys[k]; ok {
				t.Fatalf("%s reply carries %q: %s", path, k, raw)
			}
		}
		for k, implied := range map[string]string{"done": "false", "completed": "false", "rounds": "0", "epoch": "0", "root": `""`} {
			if string(keys[k]) == implied {
				t.Fatalf("%s reply spells out %q: %s", path, k, raw)
			}
		}
		var s wireSession
		if err := json.Unmarshal(raw, &s); err != nil {
			t.Fatal(err)
		}
		if _, ok := keys["suggested"]; ok == s.Done {
			t.Fatalf("%s reply: done %v, suggested present %v: %s", path, s.Done, ok, raw)
		}
		if bytes.HasSuffix(s.Token, []byte(`="`)) {
			t.Fatalf("%s reply pads its token: %s", path, s.Token)
		}
		return s
	}
	result := func(token json.RawMessage, counted bool) certainfix.Result {
		t.Helper()
		var out struct {
			Result certainfix.Result `json:"result"`
		}
		raw := exchange("/v1/result", map[string]any{"token": token}, counted)
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatal(err)
		}
		for _, implied := range []string{`"Epoch":0`, `"Root":""`} {
			if bytes.Contains(raw, []byte(implied)) {
				t.Fatalf("result spells out %s: %s", implied, raw)
			}
		}
		return out.Result
	}

	for i, input := range ds.Inputs {
		truth := ds.Truths[i]
		sess := reply("/v1/begin", map[string]any{"tuple": input})
		sess.follow(t, input, nil, nil)
		for round := 0; ; round++ {
			if got := result(sess.Token, false).Tuple; !got.Equal(sess.Tuple) {
				t.Fatalf("input %d after round %d: client holds %v, the session %v", i, round, sess.Tuple, got)
			}
			if sess.Done {
				break
			}
			values := make([]certainfix.Value, len(sess.Suggested))
			for j, p := range sess.Suggested {
				values[j] = truth[p]
			}
			next := reply("/v1/answer", map[string]any{"token": sess.Token, "attrs": sess.Suggested, "values": values})
			next.follow(t, sess.Tuple, sess.Suggested, values)
			sess = next
		}
		if res := result(sess.Token, true); !res.Completed || !res.Tuple.Equal(truth) {
			t.Fatalf("input %d: completed %v, fixed %v, truth %v", i, res.Completed, res.Tuple, truth)
		}
	}
	mean := float64(total) / float64(len(ds.Inputs))
	t.Logf("request + reply bodies: %.0f B per fix over %d fixes", mean, len(ds.Inputs))
	if budget := 3035 * 1.25; mean > budget {
		t.Errorf("request + reply bodies: %.0f B per fix, budget %.0f", mean, budget)
	}
}
