package main

// End-to-end smoke for the daemon: boot a real HTTP server on a loopback
// port, fix one tuple with plain JSON requests (what a curl session
// would send), exercise the token round-trip — including resuming
// against a *second* server instance mid-fix, since the handlers are
// stateless — and shut down gracefully.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/paperex"
	"repro/pkg/certainfix"
)

func paperSystem(t *testing.T, opts ...certainfix.Option) *certainfix.System {
	t.Helper()
	sys, err := certainfix.New(paperex.Sigma0(), paperex.MasterRelation(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// startServer boots a real listener and returns its base URL plus a
// graceful stopper.
func startServer(t *testing.T, sys *certainfix.System) (string, func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := newHTTPServer("", newHandler(sys))
	go func() { _ = srv.Serve(ln) }()
	stop := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}
	return "http://" + ln.Addr().String(), stop
}

// post sends one JSON request and decodes the JSON reply, returning the
// HTTP status.
func post(t *testing.T, url string, body any, reply any) int {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if reply != nil {
		if err := json.NewDecoder(resp.Body).Decode(reply); err != nil {
			t.Fatalf("decode reply from %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

// wireSession is a session reply plus the client's own copy of the
// tuple, kept the way any client keeps it: the begin tuple, its answers,
// and every reply's fixed cells.
type wireSession struct {
	Token       json.RawMessage    `json:"token"`
	Suggested   []int              `json:"suggested"`
	FixedAttrs  []int              `json:"fixedAttrs"`
	FixedValues []certainfix.Value `json:"fixedValues"`
	Rounds      int                `json:"rounds"`
	Done        bool               `json:"done"`
	Completed   bool               `json:"completed"`
	Epoch       uint64             `json:"epoch"`
	Root        string             `json:"root"`
	Tuple       certainfix.Tuple   `json:"-"`
}

// follow sets the client's tuple after the round this reply answers: the
// tuple before it, the values the client sent, then the fixed cells.
func (s *wireSession) follow(t *testing.T, before certainfix.Tuple, attrs []int, values []certainfix.Value) {
	t.Helper()
	if len(s.FixedAttrs) != len(s.FixedValues) {
		t.Fatalf("reply fixes %d attrs with %d values", len(s.FixedAttrs), len(s.FixedValues))
	}
	s.Tuple = before.Clone()
	for i, p := range attrs {
		s.Tuple[p] = values[i]
	}
	for i, p := range s.FixedAttrs {
		s.Tuple[p] = s.FixedValues[i]
	}
}

// begin opens a session for input on base.
func begin(t *testing.T, base string, input certainfix.Tuple) wireSession {
	t.Helper()
	var sess wireSession
	if code := post(t, base+"/v1/begin", map[string]any{"tuple": input}, &sess); code != http.StatusOK {
		t.Fatalf("begin: HTTP %d", code)
	}
	sess.follow(t, input, nil, nil)
	return sess
}

// answer runs one round against base, asserting truth for the pending
// suggestion.
func answer(t *testing.T, base string, sess wireSession, truth certainfix.Tuple) wireSession {
	t.Helper()
	values := make([]certainfix.Value, len(sess.Suggested))
	for i, p := range sess.Suggested {
		values[i] = truth[p]
	}
	var next wireSession
	if code := post(t, base+"/v1/answer", map[string]any{
		"token": sess.Token, "attrs": sess.Suggested, "values": values,
	}, &next); code != http.StatusOK {
		t.Fatalf("answer: HTTP %d", code)
	}
	next.follow(t, sess.Tuple, sess.Suggested, values)
	return next
}

// TestHTTPFixOneTuple: the full zero-to-result flow of the README
// narrative — begin, answer rounds until done, fetch the result — over a
// real socket, with the mid-fix rounds served by a *different* server
// process to prove statelessness. The two replicas read the token key
// from one -token-key-file; a third server without it refuses the token.
func TestHTTPFixOneTuple(t *testing.T) {
	truth := certainfix.StringTuple(
		"Robert", "Brady", "131", "6884563", "1",
		"51 Elm Row", "Edi", "EH7 4AH", "CD")

	keyFile := filepath.Join(t.TempDir(), "token.key")
	if err := os.WriteFile(keyFile, []byte("0123456789abcdef0123456789abcdef\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	key, err := readTokenKey(keyFile)
	if err != nil {
		t.Fatal(err)
	}
	baseA, stopA := startServer(t, paperSystem(t, certainfix.WithTokenKey(key)))
	baseB, stopB := startServer(t, paperSystem(t, certainfix.WithTokenKey(key))) // an independent replica
	defer stopB()
	baseC, stopC := startServer(t, paperSystem(t)) // not of this deployment: its own random key
	defer stopC()

	sess := begin(t, baseA, paperex.InputT2())
	if sess.Done || len(sess.Suggested) == 0 || len(sess.FixedAttrs) != 0 {
		t.Fatalf("begin reply: %+v", sess)
	}

	// Round 1 on server A, then A goes away entirely.
	sess = answer(t, baseA, sess, truth)
	stopA()
	if len(sess.FixedAttrs) == 0 {
		t.Fatalf("round 1 fixed nothing: %+v", sess)
	}
	// Peeking repeats the round's fixes — on another replica too.
	var peek wireSession
	if code := post(t, baseB+"/v1/suggest", map[string]any{"token": sess.Token}, &peek); code != http.StatusOK {
		t.Fatalf("suggest: HTTP %d", code)
	}
	if fmt.Sprint(peek.FixedAttrs, peek.FixedValues) != fmt.Sprint(sess.FixedAttrs, sess.FixedValues) {
		t.Fatalf("suggest fixes %v %v, the answer that minted its token %v %v",
			peek.FixedAttrs, peek.FixedValues, sess.FixedAttrs, sess.FixedValues)
	}

	// A key mismatch is the client's problem, typed as such, on every
	// token-taking endpoint.
	for _, path := range []string{"/v1/suggest", "/v1/answer", "/v1/result"} {
		var errReply map[string]string
		if code := post(t, baseC+path, map[string]any{"token": sess.Token}, &errReply); code != http.StatusBadRequest || errReply["code"] != "invalid_input" {
			t.Fatalf("%s under another key: HTTP %d %v", path, code, errReply)
		}
	}

	// The token carries the whole session to replica B.
	for i := 0; !sess.Done; i++ {
		if i > 10 {
			t.Fatal("session did not converge")
		}
		sess = answer(t, baseB, sess, truth)
	}
	if !sess.Completed {
		t.Fatalf("session finished incomplete: %+v", sess)
	}
	if !sess.Tuple.Equal(truth) {
		t.Fatalf("fixed tuple %v != truth %v", sess.Tuple, truth)
	}

	var res struct {
		Result certainfix.Result `json:"result"`
	}
	if code := post(t, baseB+"/v1/result", map[string]any{"token": sess.Token}, &res); code != http.StatusOK {
		t.Fatalf("result: HTTP %d", code)
	}
	if !res.Result.Completed || !res.Result.Tuple.Equal(truth) || len(res.Result.PerRound) != res.Result.Rounds {
		t.Fatalf("result: %+v", res.Result)
	}

	// Answering a finished session is a 409 with a machine-readable code.
	var errReply map[string]string
	if code := post(t, baseB+"/v1/answer", map[string]any{
		"token": sess.Token, "attrs": []int{0}, "values": []certainfix.Value{certainfix.Null},
	}, &errReply); code != http.StatusConflict || errReply["code"] != "session_done" {
		t.Fatalf("answer-after-done: HTTP %d %v", code, errReply)
	}
}

// TestHTTPSuggestAndErrors: /v1/suggest peeks without advancing, and the
// error mapping covers bad JSON, bad tokens and arity mismatches.
func TestHTTPSuggestAndErrors(t *testing.T) {
	base, stop := startServer(t, paperSystem(t))
	defer stop()

	sess := begin(t, base, paperex.InputT1())
	var peek wireSession
	if code := post(t, base+"/v1/suggest", map[string]any{"token": sess.Token}, &peek); code != http.StatusOK {
		t.Fatalf("suggest: HTTP %d", code)
	}
	if peek.Rounds != 0 || fmt.Sprint(peek.Suggested) != fmt.Sprint(sess.Suggested) {
		t.Fatalf("suggest must not advance: %+v vs %+v", peek, sess)
	}
	// The positions' names, once per client.
	var schema struct {
		Relation string   `json:"relation"`
		Attrs    []string `json:"attrs"`
	}
	resp, err := http.Get(base + "/v1/schema")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&schema); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if r := paperex.Sigma0().Schema(); schema.Relation != r.Name() || fmt.Sprint(schema.Attrs) != fmt.Sprint(r.AttrNames()) {
		t.Fatalf("GET /v1/schema: %+v, want %s %v", schema, r.Name(), r.AttrNames())
	}

	var errReply map[string]string
	if code := post(t, base+"/v1/begin", map[string]any{"tuple": []string{"short"}}, &errReply); code != http.StatusBadRequest {
		t.Fatalf("short begin: HTTP %d %v", code, errReply)
	}
	// A token is one base64 string. Anything else is malformed JSON for
	// this API; a string that is not a token this server sealed — garbage,
	// or the genuine one with a character changed — is invalid input.
	if code := post(t, base+"/v1/answer", map[string]any{"token": json.RawMessage(`{"v":99}`)}, &errReply); code != http.StatusBadRequest || errReply["code"] != "bad_request" {
		t.Fatalf("object token: HTTP %d %v", code, errReply)
	}
	forged := append(json.RawMessage(nil), sess.Token...)
	if forged[10] == 'A' {
		forged[10] = 'B'
	} else {
		forged[10] = 'A'
	}
	for name, tok := range map[string]json.RawMessage{"garbage": json.RawMessage(`"bm90IGEgdG9rZW4="`), "forged": forged} {
		if code := post(t, base+"/v1/answer", map[string]any{"token": tok}, &errReply); code != http.StatusBadRequest || errReply["code"] != "invalid_input" {
			t.Fatalf("%s token: HTTP %d %v", name, code, errReply)
		}
	}
	// An out-of-range attribute position is bad client input, not a
	// server fault.
	if code := post(t, base+"/v1/answer", map[string]any{
		"token": sess.Token, "attrs": []int{99}, "values": []certainfix.Value{certainfix.Null},
	}, &errReply); code != http.StatusBadRequest || errReply["code"] != "invalid_input" {
		t.Fatalf("out-of-range attr: HTTP %d %v", code, errReply)
	}
	resp, err = http.Post(base+"/v1/begin", "application/json", bytes.NewReader([]byte("{nope")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON: HTTP %d", resp.StatusCode)
	}
	// One JSON value per request: bytes after it are an error, not ignored.
	body, err := json.Marshal(map[string]any{"tuple": paperex.InputT1()})
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(base+"/v1/begin", "application/json", bytes.NewReader(append(body, " garbage"...)))
	if err != nil {
		t.Fatal(err)
	}
	errReply = nil
	if err := json.NewDecoder(resp.Body).Decode(&errReply); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || errReply["code"] != "bad_request" {
		t.Fatalf("trailing bytes after the JSON value: HTTP %d %v", resp.StatusCode, errReply)
	}
	if code := post(t, base+"/healthz", nil, nil); code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /healthz: HTTP %d", code)
	}
	resp, err = http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /healthz: HTTP %d", resp.StatusCode)
	}
}

// TestReadTimeoutClosesStalledBody: newHTTPServer bounds reads. With its
// ReadTimeout lowered, a client that sends the headers of a request and
// then stalls the body has its connection closed instead of holding it.
func TestReadTimeoutClosesStalledBody(t *testing.T) {
	srv := newHTTPServer("", newHandler(paperSystem(t)))
	srv.ReadTimeout = 200 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	defer srv.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "POST /v1/begin HTTP/1.1\r\nHost: x\r\n"+
		"Content-Type: application/json\r\nContent-Length: 64\r\n\r\n{\"tuple\":"); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	// The server may answer the truncated request before it hangs up;
	// what matters is that it does hang up.
	var ne net.Error
	if _, err := io.ReadAll(conn); errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("a stalled body still holds its connection after 10 s: %v", err)
	}
}

// TestWriteJSONEncodeFailure: a reply that does not encode is a complete
// 500 with the typed error body, never a 200 cut short.
func TestWriteJSONEncodeFailure(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]any{"unencodable": make(chan int)})
	var reply errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil {
		t.Fatalf("body %q: %v", rec.Body, err)
	}
	if rec.Code != http.StatusInternalServerError || reply.Code != "internal" {
		t.Fatalf("HTTP %d %+v", rec.Code, reply)
	}
	if got := rec.Header().Get("Content-Length"); got != fmt.Sprint(rec.Body.Len()) {
		t.Fatalf("Content-Length %q for a body of %d bytes", got, rec.Body.Len())
	}
}

// TestHTTPEpochEvictionAndRebase: update-master advances the epoch; with
// a single-slot ring the suspended session's epoch evicts, /v1/answer
// replies 409 epoch_evicted, and "rebase": true recovers. The update
// deletes s1, the one master tuple round 1 fixed from (a swap-remove: s2
// takes its id), so replaying that round at the head withdraws its fixes.
// The rebased reply hands the client every cell the users did not
// assert: the client's tuple equals /v1/result's after every reply, and
// the final fix verifies against the reply's root.
func TestHTTPEpochEvictionAndRebase(t *testing.T) {
	truth := certainfix.StringTuple(
		"Robert", "Brady", "131", "6884563", "1",
		"51 Elm Row", "Edi", "EH7 4AH", "CD")
	base, stop := startServer(t, paperSystem(t, certainfix.WithAuth(), certainfix.WithMasterHistory(1)))
	defer stop()
	// result fetches the session's result, which must hold the client's tuple.
	result := func(sess wireSession) certainfix.Result {
		t.Helper()
		var out struct {
			Result certainfix.Result `json:"result"`
		}
		if code := post(t, base+"/v1/result", map[string]any{"token": sess.Token}, &out); code != http.StatusOK {
			t.Fatalf("result: HTTP %d", code)
		}
		if !out.Result.Tuple.Equal(sess.Tuple) {
			t.Fatalf("after round %d the client holds %v, the session %v", sess.Rounds, sess.Tuple, out.Result.Tuple)
		}
		return out.Result
	}

	sess := answer(t, base, begin(t, base, paperex.InputT2()), truth)
	result(sess)
	if len(sess.FixedAttrs) == 0 {
		t.Fatal("round 1 fixed nothing: nothing for the rebase to withdraw")
	}

	var upd map[string]any
	if code := post(t, base+"/v1/update-master", map[string]any{"deletes": []int{0}}, &upd); code != http.StatusOK {
		t.Fatalf("update-master: HTTP %d %v", code, upd)
	}

	values := []certainfix.Value{}
	attrs := []int{}
	for _, p := range sess.Suggested {
		attrs = append(attrs, p)
		values = append(values, truth[p])
	}
	var errReply map[string]string
	if code := post(t, base+"/v1/answer", map[string]any{
		"token": sess.Token, "attrs": attrs, "values": values,
	}, &errReply); code != http.StatusConflict || errReply["code"] != "epoch_evicted" {
		t.Fatalf("evicted answer: HTTP %d %v", code, errReply)
	}

	var next wireSession
	if code := post(t, base+"/v1/answer", map[string]any{
		"token": sess.Token, "attrs": attrs, "values": values, "rebase": true,
	}, &next); code != http.StatusOK {
		t.Fatalf("rebased answer: HTTP %d", code)
	}
	next.follow(t, sess.Tuple, attrs, values)
	result(next)
	for i := 0; !next.Done; i++ {
		if i > 10 {
			t.Fatal("rebased session did not converge")
		}
		next = answer(t, base, next, truth)
		result(next)
	}
	if !next.Completed || !next.Tuple.Equal(truth) {
		t.Fatalf("rebased session incomplete: %+v", next)
	}
	res := result(next)
	if err := certainfix.VerifyFix(paperex.Sigma0(), &res, next.Root); err != nil {
		t.Fatalf("rebased fix under the reply's root %s: %v", next.Root, err)
	}
}

// TestHTTPEpochAheadOnLaggingFollower: a token minted on the leader at an
// epoch a partitioned follower has not been shipped yet gets 503
// epoch_ahead with Retry-After from the follower — not 409 epoch_evicted,
// whose documented reaction, "rebase": true, would move the session back
// onto an older master; rebase is refused the same way. Once the link
// heals and the epoch arrives, the very same request succeeds.
func TestHTTPEpochAheadOnLaggingFollower(t *testing.T) {
	key := certainfix.WithTokenKey([]byte("leader-follower-shared-key"))
	leader := paperSystem(t, certainfix.WithWAL(t.TempDir()), key)
	defer leader.Close()
	var partitioned atomic.Bool
	ship := newHandler(leader)
	link := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if partitioned.Load() {
			http.Error(w, "partitioned", http.StatusBadGateway)
			return
		}
		ship.ServeHTTP(w, r)
	}))
	defer link.Close()

	follower, err := certainfix.NewFollower(paperex.Sigma0(), link.URL, key)
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	base, stop := startServer(t, follower)
	defer stop()
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(15 * time.Second); !cond(); time.Sleep(5 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s (follower at epoch %d, leader at %d)", what, follower.MasterEpoch(), leader.MasterEpoch())
			}
		}
	}
	converged := func() bool { return follower.MasterEpoch() == leader.MasterEpoch() }
	waitFor("the bootstrap", converged)

	// Cut the link, the open tail stream included, and wait until the
	// follower has seen it go: from here on nothing reaches it.
	partitioned.Store(true)
	link.CloseClientConnections()
	waitFor("the follower to notice the partition", func() bool {
		st, _ := follower.Replication()
		return st.Reconnects >= 1
	})
	if _, err := leader.UpdateMaster([]certainfix.Tuple{certainfix.StringTuple(
		"Jane", "Doe", "999", "5551234", "070000000",
		"1 Test St", "Tst", "ZZ1 1ZZ", "01/01/70", "F")}, nil); err != nil {
		t.Fatal(err)
	}
	sess, err := leader.Begin(context.Background(), paperex.InputT2())
	if err != nil {
		t.Fatal(err)
	}
	token, err := sess.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if sess.Epoch() <= follower.MasterEpoch() {
		t.Fatalf("leader token at epoch %d, follower head %d: nothing is ahead", sess.Epoch(), follower.MasterEpoch())
	}

	for _, rebase := range []bool{false, true} {
		b, _ := json.Marshal(map[string]any{"token": token, "rebase": rebase})
		resp, err := http.Post(base+"/v1/suggest", "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		var reply map[string]string
		if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable || reply["code"] != "epoch_ahead" || resp.Header.Get("Retry-After") == "" {
			t.Fatalf("leader token on the lagging follower (rebase %v): HTTP %d %v, Retry-After %q",
				rebase, resp.StatusCode, reply, resp.Header.Get("Retry-After"))
		}
	}

	partitioned.Store(false)
	waitFor("the healed link to ship the epoch", converged)
	var resumed wireSession
	if code := post(t, base+"/v1/suggest", map[string]any{"token": token}, &resumed); code != http.StatusOK {
		t.Fatalf("same token once the follower caught up: HTTP %d", code)
	}
	if resumed.Epoch != sess.Epoch() {
		t.Fatalf("resumed at epoch %d, token minted at %d", resumed.Epoch, sess.Epoch())
	}
}

// TestBuildSystemFromFiles: the daemon's file loaders (schema-header
// rules file + master CSV) produce a working system.
func TestBuildSystemFromFiles(t *testing.T) {
	dir := t.TempDir()
	rules := filepath.Join(dir, "kv.rules")
	if err := os.WriteFile(rules, []byte(
		"schema R: K, V\nmaster Rm: K, V\nrule kv: (K ; K) -> (V ; V) when K != nil\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	masterCSV := filepath.Join(dir, "master.csv")
	if err := os.WriteFile(masterCSV, []byte("K,V\nk1,v1\nk2,v2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	sys, err := buildSystem(serverConfig{rulesPath: rules, masterPath: masterCSV, maxRounds: 3, history: 4})
	if err != nil {
		t.Fatal(err)
	}
	fixed, _, changed, err := sys.RepairOnce(certainfix.StringTuple("k1", "wrong"), []int{0})
	if err != nil || len(changed) != 1 || fixed[1].Str() != "v1" {
		t.Fatalf("fixed=%v changed=%v err=%v", fixed, changed, err)
	}
	if _, err := buildSystem(serverConfig{rulesPath: filepath.Join(dir, "missing.rules"), masterPath: masterCSV}); err == nil {
		t.Fatal("missing rules file must error")
	}

	// -token-key-file: a missing or short key is refused at start.
	keyFile := filepath.Join(dir, "token.key")
	if _, err := buildSystem(serverConfig{rulesPath: rules, masterPath: masterCSV, tokenKeyFile: keyFile}); err == nil {
		t.Fatal("missing token key file must error")
	}
	if err := os.WriteFile(keyFile, []byte("too short\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := buildSystem(serverConfig{rulesPath: rules, masterPath: masterCSV, tokenKeyFile: keyFile}); err == nil {
		t.Fatal("a 9-byte token key must error")
	}
	if err := os.WriteFile(keyFile, []byte("sixteen bytes or more of key\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := buildSystem(serverConfig{rulesPath: rules, masterPath: masterCSV, tokenKeyFile: keyFile}); err != nil {
		t.Fatal(err)
	}

	// -master-snapshot round trip: first start builds from CSV and saves
	// the arena; second start loads it — without the CSV — and fixes
	// identically. Stats must report the arena backing.
	arena := filepath.Join(dir, "master.arena")
	if _, err := buildSystem(serverConfig{rulesPath: rules, masterPath: masterCSV, snapshot: arena}); err != nil {
		t.Fatal(err)
	}
	sys2, err := buildSystem(serverConfig{rulesPath: rules, snapshot: arena})
	if err != nil {
		t.Fatal(err)
	}
	fixed, _, changed, err = sys2.RepairOnce(certainfix.StringTuple("k2", "wrong"), []int{0})
	if err != nil || len(changed) != 1 || fixed[1].Str() != "v2" {
		t.Fatalf("arena-loaded fix: fixed=%v changed=%v err=%v", fixed, changed, err)
	}
	if ms := sys2.MasterMemStats(); !ms.ArenaBacked {
		t.Fatalf("arena-loaded system reports no arena backing: %+v", ms)
	}
	// Snapshot path given but file absent and no CSV either: a clear error.
	if _, err := buildSystem(serverConfig{rulesPath: rules, snapshot: filepath.Join(dir, "absent.arena")}); err == nil {
		t.Fatal("missing master and missing snapshot must error")
	}
}

// TestDurableReopenWithoutMasterCSV: under -wal-dir the -master CSV seeds
// the lineage on the first start only. A restart on the recovered directory
// must not open it — the checkpoint and the log hold the master, the CSV may
// have moved — while a first start without it still fails.
func TestDurableReopenWithoutMasterCSV(t *testing.T) {
	dir := t.TempDir()
	rules := filepath.Join(dir, "kv.rules")
	if err := os.WriteFile(rules, []byte(
		"schema R: K, V\nmaster Rm: K, V\nrule kv: (K ; K) -> (V ; V) when K != nil\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	masterCSV := filepath.Join(dir, "master.csv")
	cfg := serverConfig{rulesPath: rules, masterPath: masterCSV, walDir: filepath.Join(dir, "wal")}
	if _, err := buildSystem(cfg); err == nil {
		t.Fatal("a first start without the master CSV must error")
	}
	if err := os.WriteFile(masterCSV, []byte("K,V\nk1,v1\nk2,v2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	sys, err := buildSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.UpdateMaster([]certainfix.Tuple{certainfix.StringTuple("k3", "v3")}, nil); err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(masterCSV); err != nil {
		t.Fatal(err)
	}
	sys, err = buildSystem(cfg)
	if err != nil {
		t.Fatalf("restart on a recovered -wal-dir with -master gone: %v", err)
	}
	defer sys.Close()
	if sys.MasterEpoch() != 1 || sys.MasterLen() != 3 {
		t.Fatalf("recovered epoch %d, |Dm| = %d; want 1, 3", sys.MasterEpoch(), sys.MasterLen())
	}
	for k, v := range map[string]string{"k1": "v1", "k3": "v3"} {
		fixed, _, changed, err := sys.RepairOnce(certainfix.StringTuple(k, "wrong"), []int{0})
		if err != nil || len(changed) != 1 || fixed[1].Str() != v {
			t.Fatalf("recovered fix of %s: fixed=%v changed=%v err=%v", k, fixed, changed, err)
		}
	}
}

// TestRestartOnNonFunctionalMaster: boot behaves like live. Updates that
// leave a rule non-functional on Dm (every key of kv maps to two values)
// do not stop a running server — its sessions route the disputed attribute
// to the users — so a restart on that same -wal-dir must come up too: no
// region verifies, /healthz says so, sessions open with the trivial region
// and every fix still equals the truth.
func TestRestartOnNonFunctionalMaster(t *testing.T) {
	dir := t.TempDir()
	rules := filepath.Join(dir, "kvw.rules")
	if err := os.WriteFile(rules, []byte(
		"schema R: K, V, W\nmaster Rm: K, V, W\n"+
			"rule kv: (K ; K) -> (V ; V) when K != nil\nrule kw: (K ; K) -> (W ; W) when K != nil\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	masterCSV := filepath.Join(dir, "master.csv")
	if err := os.WriteFile(masterCSV, []byte("K,V,W\nk1,v1,w1\nk2,v2,w2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := serverConfig{rulesPath: rules, masterPath: masterCSV, walDir: filepath.Join(dir, "wal")}
	sys, err := buildSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(sys.Regions()) == 0 {
		t.Fatal("fixture broken: the clean master must verify a region")
	}
	if _, err := sys.UpdateMaster([]certainfix.Tuple{
		certainfix.StringTuple("k1", "v1-other", "w1"),
		certainfix.StringTuple("k2", "v2-other", "w2"),
	}, nil); err != nil {
		t.Fatal(err)
	}
	truth := certainfix.StringTuple("k1", "v1", "w1")
	fixOver := func(base string) {
		t.Helper()
		sess := begin(t, base, certainfix.StringTuple("k1", "bad", "bad"))
		for i := 0; !sess.Done; i++ {
			if i > 4 {
				t.Fatal("session did not converge")
			}
			sess = answer(t, base, sess, truth)
		}
		if !sess.Completed || !sess.Tuple.Equal(truth) {
			t.Fatalf("fixed tuple %v (completed %v), truth %v", sess.Tuple, sess.Completed, truth)
		}
	}
	base, stop := startServer(t, sys)
	fixOver(base) // live: the stale seed {K}, then V by hand
	stop()
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	sys, err = buildSystem(cfg)
	if err != nil {
		t.Fatalf("restart on a lineage the server was serving: %v", err)
	}
	defer sys.Close()
	base, stop = startServer(t, sys)
	defer stop()
	fixOver(base)
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health struct {
		OK      bool `json:"ok"`
		Regions *int `json:"regions"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if !health.OK || health.Regions == nil || *health.Regions != 0 {
		t.Fatalf("/healthz after the restart: ok %v, regions %v; want ok, regions 0", health.OK, health.Regions)
	}
}

// TestHTTPInvalidDeltaIsClientError: a delta the master refuses — a delete
// id out of range, a delete id named twice, an add of the wrong arity — is
// 400 invalid_input, not 500: the request is what is wrong. Nothing of it
// happened: /healthz shows the epoch and |Dm| it showed before, and the WAL
// under -wal-dir did not grow — the delta is refused before the log sees it.
func TestHTTPInvalidDeltaIsClientError(t *testing.T) {
	dir := t.TempDir()
	rules := filepath.Join(dir, "kv.rules")
	if err := os.WriteFile(rules, []byte(
		"schema R: K, V\nmaster Rm: K, V\nrule kv: (K ; K) -> (V ; V) when K != nil\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	masterCSV := filepath.Join(dir, "master.csv")
	if err := os.WriteFile(masterCSV, []byte("K,V\nk1,v1\nk2,v2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	sys, err := buildSystem(serverConfig{rulesPath: rules, masterPath: masterCSV, walDir: filepath.Join(dir, "wal")})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	base, stop := startServer(t, sys)
	defer stop()

	type health struct {
		Epoch      uint64 `json:"epoch"`
		MasterSize int    `json:"masterSize"`
		Durability struct {
			WAL struct {
				Bytes     int64
				LastEpoch uint64
			}
		} `json:"durability"`
	}
	healthz := func() (h health) {
		t.Helper()
		resp, err := http.Get(base + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		return h
	}
	// One good delta first, so the log holds a record an append would follow.
	if code := post(t, base+"/v1/update-master", map[string]any{
		"adds": []certainfix.Tuple{certainfix.StringTuple("k3", "v3")},
	}, nil); code != http.StatusOK {
		t.Fatalf("valid update-master: HTTP %d", code)
	}
	before := healthz()
	if before.Epoch != 1 || before.MasterSize != 3 || before.Durability.WAL.LastEpoch != 1 || before.Durability.WAL.Bytes == 0 {
		t.Fatalf("fixture broken: /healthz %+v", before)
	}
	for name, body := range map[string]map[string]any{
		"delete id out of range": {"deletes": []int{3}},
		"duplicate delete id":    {"deletes": []int{1, 1}},
		"wrong-arity add":        {"adds": []certainfix.Tuple{certainfix.StringTuple("k4")}},
	} {
		var reply map[string]string
		if code := post(t, base+"/v1/update-master", body, &reply); code != http.StatusBadRequest || reply["code"] != "invalid_input" {
			t.Errorf("%s: HTTP %d %v, want 400 invalid_input", name, code, reply)
		}
		if after := healthz(); after != before {
			t.Errorf("%s: /healthz moved from %+v to %+v", name, before, after)
		}
	}
}
