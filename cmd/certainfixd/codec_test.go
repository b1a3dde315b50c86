package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/datagen"
	"repro/pkg/certainfix"
)

// The encoding/json reference of each request body: the structs the
// hand-written decoders replaced, decoded the way the server decoded
// them — one value per body, unknown fields refused, nothing after it.

type refBegin struct {
	Tuple certainfix.Tuple `json:"tuple"`
}

type refTokenRequest struct {
	Token  refToken `json:"token"`
	Rebase bool     `json:"rebase,omitempty"`
}

type refAnswer struct {
	refTokenRequest
	Attrs  []int              `json:"attrs"`
	Values []certainfix.Value `json:"values"`
}

type refUpdateMaster struct {
	Adds    []certainfix.Tuple `json:"adds"`
	Deletes []int              `json:"deletes"`
}

// refToken is a token as a JSON string of base64, padded or not; null is
// no token.
type refToken []byte

func (t *refToken) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		*t = nil
		return nil
	}
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	token, err := decodeToken([]byte(s))
	*t = token
	return err
}

func referenceDecode(body []byte, dst any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(dst)
	if err == nil {
		if _, more := dec.Token(); more != io.EOF {
			err = errors.New("trailing data after the JSON value")
		}
	}
	return err
}

// requestRoute pairs a body's hand decoder with its reference, each
// returning the decoded request in the hand decoder's type.
type requestRoute struct {
	name      string
	hand, ref func(body []byte) (any, error)
}

var requestRoutes = []requestRoute{
	{"begin",
		func(b []byte) (any, error) {
			var r beginRequest
			return r, r.decode(b)
		},
		func(b []byte) (any, error) {
			var r refBegin
			err := referenceDecode(b, &r)
			return beginRequest{tuple: r.Tuple}, err
		}},
	{"token",
		func(b []byte) (any, error) {
			var r tokenRequest
			return r, r.decode(b)
		},
		func(b []byte) (any, error) {
			var r refTokenRequest
			err := referenceDecode(b, &r)
			return tokenRequest{token: r.Token, rebase: r.Rebase}, err
		}},
	{"answer",
		func(b []byte) (any, error) {
			var r answerRequest
			return r, r.decode(b)
		},
		func(b []byte) (any, error) {
			var r refAnswer
			err := referenceDecode(b, &r)
			return answerRequest{tokenRequest{r.Token, r.Rebase}, r.Attrs, r.Values}, err
		}},
	{"update-master",
		func(b []byte) (any, error) {
			var r updateMasterRequest
			return r, r.decode(b)
		},
		func(b []byte) (any, error) {
			var r refUpdateMaster
			err := referenceDecode(b, &r)
			return updateMasterRequest{adds: r.Adds, deletes: r.Deletes}, err
		}},
}

// checkRequestJSON decodes body with every route's hand decoder and its
// reference: both must refuse it, or both accept it and decode equal
// values.
func checkRequestJSON(t *testing.T, body []byte) {
	t.Helper()
	for _, rt := range requestRoutes {
		got, err := rt.hand(body)
		want, refErr := rt.ref(body)
		switch {
		case (err == nil) != (refErr == nil):
			t.Fatalf("%s body %q: hand decoder error %v, encoding/json error %v", rt.name, body, err, refErr)
		case err == nil && !reflect.DeepEqual(got, want):
			t.Fatalf("%s body %q:\n hand decoder  %#v\n encoding/json %#v", rt.name, body, got, want)
		}
	}
}

// requestSeeds are edge cases of the request grammar: the forms
// encoding/json accepts that a hand decoder is likeliest to get wrong,
// and the ones it refuses.
var requestSeeds = []string{
	`null`, ` null `, `{}`, " \t\r\n{ } \n", `nul`, `nullx`, `{}{}`, `{} x`, `[]`, `1`, `"x"`, `true`, ``, ` `,
	`{"tuple":["a",null,7,-0,-9223372036854775808,9223372036854775807]}`,
	`{"tuple":[9223372036854775808]}`, `{"tuple":[-9223372036854775809]}`, `{"tuple":[1.0]}`, `{"tuple":[1e2]}`,
	`{"tuple":[01]}`, `{"tuple":[-]}`, `{"tuple":[true]}`, `{"tuple":[[]]}`, `{"tuple":[{}]}`, `{"tuple":"a"}`,
	`{"tuple":[]}`, `{"tuple":null}`, `{"tuple":[],}`, `{"tuple":[1,]}`, `{"tuple" : [ 1 , "b" ] }`, `{"tuple":[1 2]}`,
	`{"TUPLE":["x"]}`, `{"Tuple":["x"],"tuple":null}`, `{"tuple":["x"],"tuple":["y"]}`, `{"tuplé":[]}`, `{"tuple":[],"x":1}`,
	`{"tu\u0070le":["\u00e9\ud83d\ude00\ud800\udc00\ud800x\udc00\ud800\ud800\u0000"]}`,
	`{"tuple":["\"\\\/\b\f\n\r\t"]}`, `{"tuple":["\x"]}`, `{"tuple":["\u12"]}`, `{"tuple":["\'"]}`, "{\"tuple\":[\"a\x01\"]}",
	"{\"tuple\":[\"\xff\xfe\xc3\x28\xed\xa0\x80\xef\xbf\xbd\"]}", "{\"tuple\":[\"\xe2\x82\"]}", `{"tuple":["`,
	`{"token":"BgABAg","rebase":true}`, `{"token":"BgABAg==","rebase":false}`, `{"token":"BgABAg="}`, `{"token":"B"}`,
	`{"token":null,"rebase":null}`, `{"token":"QQ","token":null}`, `{"token":""}`, `{"token":"QQ\n=="}`, `{"token":7}`,
	`{"to\u212aen":"QQ","reba\u017fe":true}`, `{"tokeN":"QQ","REBASE":true}`, `{"token":"QQ","rebase":1}`,
	`{"rebase":true,"rebase":null}`, `{"token":"QQ","attrs":[0,1],"values":["a",null]}`,
	`{"attrs":[5,6],"attrs":[1],"attrs":[1,null]}`, `{"attrs":[5],"attrs":[],"attrs":[null]}`, `{"attrs":[null,null]}`,
	`{"attrs":[-1,1e0]}`, `{"attr\u017f":[1],"values":null,"values":[]}`, `{"attrs":[1],"attrs":null}`,
	`{"adds":[["a",null],null,[]],"deletes":[3,null]}`, `{"adds":null,"deletes":null}`, `{"adds":[1]}`, `{"adds":[[1],]}`,
	`{"adds":[["a"]],"adds":[null]}`, `{"deletes":[1],"deletes":[null,2]}`, `{"Adds":[],"DELETES":[]}`,
}

// FuzzRequestJSON holds each body's hand-written decoder to encoding/json,
// the way FuzzResultJSON holds the result codec: every input is decoded by
// the begin, token (suggest and result), answer and update-master decoders
// and their references, which must agree on accepting it and, when they
// do, decode equal values. Seeds are the bodies a HOSP session sends and
// the grammar's edge cases.
func FuzzRequestJSON(f *testing.F) {
	for _, s := range requestSeeds {
		f.Add([]byte(s))
	}
	h, ds := hospHandler(f, 1000, 8)
	for i, input := range ds.Inputs {
		for _, ex := range driveFix(f, h, input, ds.Truths[i]) {
			f.Add(ex.body)
		}
	}
	f.Add(mustJSON(f, map[string]any{"adds": []certainfix.Tuple{ds.Master.Tuple(0)}, "deletes": []int{0, 1}}))
	f.Fuzz(checkRequestJSON)
}

// TestRequestJSONForms pins what the grammar notes in codec.go promise on
// top of agreeing with encoding/json.
func TestRequestJSONForms(t *testing.T) {
	var tok tokenRequest
	if err := tok.decode([]byte(`{"to\u212aen":"QQ","reba\u017fe":true}`)); err != nil || string(tok.token) != "A" || !tok.rebase {
		t.Fatalf("folded keys: %+v, %v", tok, err)
	}
	for _, token := range []string{"QUI", "QUI="} {
		var r tokenRequest
		if err := r.decode([]byte(`{"token":"` + token + `"}`)); err != nil || string(r.token) != "AB" {
			t.Fatalf("token %q: %q, %v", token, r.token, err)
		}
	}
	var ans answerRequest
	if err := ans.decode([]byte(`{"attrs":[5,6],"attrs":[1],"attrs":[1,null]}`)); err != nil || fmt.Sprint(ans.attrs) != "[1 6]" {
		t.Fatalf("repeated positions: %v, %v", ans.attrs, err)
	}
	var begin beginRequest
	if err := begin.decode([]byte(`{"tuple":["\ud800x\ud83d\ude00","` + "\xff" + `",-0,null]}`)); err != nil ||
		!begin.tuple.Equal(certainfix.Tuple{certainfix.String("\ufffdx😀"), certainfix.String("\ufffd"), certainfix.Int(0), certainfix.Null}) {
		t.Fatalf("cells: %v, %v", begin.tuple, err)
	}
}

// TestBodyTooLarge: a body one byte over the 1 MiB bound is 413
// body_too_large on every POST route, before anything is decoded; one at
// the bound is read and decoded (whitespace around null is a valid body).
func TestBodyTooLarge(t *testing.T) {
	h := newHandler(paperSystem(t))
	for _, path := range []string{"/v1/begin", "/v1/suggest", "/v1/answer", "/v1/result", "/v1/update-master"} {
		for _, size := range []int{maxBody, maxBody + 1} {
			body := append(bytes.Repeat([]byte(" "), size-4), "null"...)
			for _, sized := range []bool{true, false} {
				req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
				if !sized {
					// No Content-Length: the bound must hold on the bytes read.
					req = httptest.NewRequest(http.MethodPost, path, io.MultiReader(bytes.NewReader(body)))
					req.ContentLength = -1
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				var reply struct {
					Code string `json:"code"`
				}
				if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil {
					t.Fatalf("%s, %d B, sized %v: reply %q: %v", path, size, sized, rec.Body, err)
				}
				tooLarge := rec.Code == http.StatusRequestEntityTooLarge && reply.Code == "body_too_large"
				if tooLarge != (size > maxBody) {
					t.Fatalf("%s, %d B, sized %v: HTTP %d %s", path, size, sized, rec.Code, rec.Body)
				}
			}
		}
	}
}

// hospHandler is a handler over a generated HOSP world of the given
// master size, with n inputs and their truths.
func hospHandler(tb testing.TB, masterSize, n int) (http.Handler, *datagen.Dataset) {
	tb.Helper()
	ds, err := datagen.Hosp(datagen.Config{Seed: 1, MasterSize: masterSize, Tuples: n, DupRate: 0.3, NoiseRate: 0.2})
	if err != nil {
		tb.Fatal(err)
	}
	sys, err := certainfix.New(ds.Sigma, ds.Master.Relation())
	if err != nil {
		tb.Fatal(err)
	}
	return newHandler(sys), ds
}

func mustJSON(tb testing.TB, v any) []byte {
	tb.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// exchange is one request of a fix: its path and body, and the reply.
type exchange struct {
	path        string
	body, reply []byte
}

// driveFix fixes input through h the way a client does — begin, answer
// every suggestion from truth, fetch the result — and returns the
// exchanges.
func driveFix(tb testing.TB, h http.Handler, input, truth certainfix.Tuple) []exchange {
	tb.Helper()
	var out []exchange
	post := func(path string, body []byte) []byte {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			tb.Fatalf("%s: HTTP %d %s", path, rec.Code, rec.Body)
		}
		out = append(out, exchange{path, body, rec.Body.Bytes()})
		return rec.Body.Bytes()
	}
	var sess struct {
		Token     json.RawMessage `json:"token"`
		Suggested []int           `json:"suggested"`
		Done      bool            `json:"done"`
	}
	reply := post("/v1/begin", mustJSON(tb, map[string]any{"tuple": input}))
	for {
		sess.Suggested = nil
		if err := json.Unmarshal(reply, &sess); err != nil {
			tb.Fatal(err)
		}
		if sess.Done {
			break
		}
		values := make([]certainfix.Value, len(sess.Suggested))
		for j, p := range sess.Suggested {
			values[j] = truth[p]
		}
		reply = post("/v1/answer", mustJSON(tb, map[string]any{"token": sess.Token, "attrs": sess.Suggested, "values": values}))
	}
	post("/v1/result", mustJSON(tb, map[string]any{"token": sess.Token}))
	return out
}

// BenchmarkRequestJSON decodes the request bodies of HOSP fixes — begin,
// answers and result, as a client sends them — with the hand-written
// decoders and with the encoding/json reference. GC is off while timing,
// so allocs/op repeats exactly.
func BenchmarkRequestJSON(b *testing.B) {
	h, ds := hospHandler(b, 1000, 50)
	var bodies []exchange
	for i, input := range ds.Inputs {
		bodies = append(bodies, driveFix(b, h, input, ds.Truths[i])...)
	}
	for _, dec := range []struct {
		name   string
		decode func(path string, body []byte) error
	}{
		{"hand", func(path string, body []byte) error {
			switch path {
			case "/v1/begin":
				var r beginRequest
				return r.decode(body)
			case "/v1/answer":
				var r answerRequest
				return r.decode(body)
			default:
				var r tokenRequest
				return r.decode(body)
			}
		}},
		{"reference", func(path string, body []byte) error {
			switch path {
			case "/v1/begin":
				var r refBegin
				return referenceDecode(body, &r)
			case "/v1/answer":
				var r refAnswer
				return referenceDecode(body, &r)
			default:
				var r refTokenRequest
				return referenceDecode(body, &r)
			}
		}},
	} {
		b.Run(dec.name, func(b *testing.B) {
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			size := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ex := &bodies[i%len(bodies)]
				if err := dec.decode(ex.path, ex.body); err != nil {
					b.Fatal(err)
				}
				size += len(ex.body)
			}
			b.ReportMetric(float64(size)/float64(b.N), "B/body")
		})
	}
}

// BenchmarkHandlerFix replays whole HOSP fixes through the handler in
// process — begin, an answer per suggestion, result; httptest, no socket
// — one fix per op, cycling through the inputs. The bodies are the ones a
// client sent in setup (a token is a pure function of the session and the
// key), so the loop times the server alone and checks every reply against
// the one recorded. GOMAXPROCS is 1 and GC off while timing, so the pooled
// buffers and HMAC states are never dropped or stranded on another P, and
// allocs/op and B/op repeat.
func BenchmarkHandlerFix(b *testing.B) {
	h, ds := hospHandler(b, 1000, 50)
	fixes := make([][]exchange, len(ds.Inputs))
	wire := 0
	for i, input := range ds.Inputs {
		fixes[i] = driveFix(b, h, input, ds.Truths[i])
		for _, ex := range fixes[i] {
			wire += len(ex.body) + len(ex.reply)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, ex := range fixes[i%len(fixes)] {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, ex.path, bytes.NewReader(ex.body)))
			if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), ex.reply) {
				b.Fatalf("%s: HTTP %d, a reply other than the recorded one: %s", ex.path, rec.Code, rec.Body)
			}
		}
	}
	b.ReportMetric(float64(wire)/float64(len(fixes)), "body-B/fix")
}
