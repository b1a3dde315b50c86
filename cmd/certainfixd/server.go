package main

// The HTTP layer of certainfixd. Every handler is stateless: the session
// travels as a token — the System's authenticated record of its inputs,
// carried in JSON as one base64 string the client echoes verbatim — so
// any replica of this server (sharing the rules, the master lineage and
// the token key) can serve any round of any session: the stateless-server
// pattern the resumable session API exists for. A token this deployment
// did not mint is a 400 before any session state is touched. The server
// holds exactly one piece of mutable state, the versioned master data
// inside the System, which /v1/update-master advances.
//
// Replies are encoded into a pooled buffer and sent with an explicit
// Content-Length: an encoding failure is a 500, never a truncated 200,
// and no reply pays for chunked framing.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"

	"repro/pkg/certainfix"
)

// server wires a certainfix.System into HTTP handlers.
type server struct {
	sys *certainfix.System
}

// newHandler builds the route table.
func newHandler(sys *certainfix.System) http.Handler {
	s := &server{sys: sys}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/begin", s.handleBegin)
	mux.HandleFunc("POST /v1/suggest", s.handleSuggest)
	mux.HandleFunc("POST /v1/answer", s.handleAnswer)
	mux.HandleFunc("POST /v1/result", s.handleResult)
	mux.HandleFunc("POST /v1/update-master", s.handleUpdateMaster)
	// Epoch shipping, the leader side: followers stream acknowledged WAL
	// records and fetch the checkpoint image to bootstrap or catch up.
	// Both answer 404 {"code": "not_durable"} without -wal-dir.
	mux.HandleFunc("GET /v1/wal", sys.ServeWAL)
	mux.HandleFunc("GET /v1/checkpoint", sys.ServeCheckpoint)
	// The relation and its attribute names, fetched once: session replies
	// and results name attributes by position only.
	schema := sys.Schema()
	schemaBody := struct {
		Relation string   `json:"relation"`
		Attrs    []string `json:"attrs"`
	}{schema.Name(), schema.AttrNames()}
	mux.HandleFunc("GET /v1/schema", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, schemaBody)
	})
	// The published master commitment: (epoch, root) identify the master
	// contents exactly. Clients pin or audit this root and check fix
	// provenance against it offline (certainfix.VerifyFix) — the server
	// never has to be trusted about which master tuples a fix consumed.
	mux.HandleFunc("GET /v1/root", func(w http.ResponseWriter, r *http.Request) {
		var body struct {
			Authenticated bool   `json:"authenticated"`
			Epoch         uint64 `json:"epoch"`
			Root          string `json:"root,omitempty"`
		}
		body.Epoch = sys.MasterEpoch()
		body.Root, body.Authenticated = sys.MasterRoot()
		writeJSON(w, http.StatusOK, body)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		body := map[string]any{
			"ok":         true,
			"epoch":      sys.MasterEpoch(),
			"masterSize": sys.MasterLen(),
			// Certain regions verified at boot; 0 means sessions open with
			// the trivial region (some rule is not a function on Dm).
			"regions": len(sys.Regions()),
			// Where the master's lookup structures live (heap vs arena)
			// and what they weigh — the observable side of -master-snapshot.
			"master": sys.MasterMemStats(),
		}
		// The durable lineage, when running with -wal-dir: checkpoint
		// epoch, log shape, and what recovery found on the last start.
		if st, ok := sys.Durability(); ok {
			body["durability"] = st
		}
		// The shipping state, when running with -follow: leader, lag,
		// catch-ups, and whether the loop is tailing or diverged.
		if st, ok := sys.Replication(); ok {
			body["replication"] = st
		}
		writeJSON(w, http.StatusOK, body)
	})
	return mux
}

// sessionResponse is the common reply of begin / suggest / answer: the
// new token (the client must send it back on the next call — the server
// keeps nothing) plus what changed, never what the client already holds.
// The tuple is not resent: the begin tuple, plus the client's own
// answers, plus every reply's FixedAttrs/FixedValues is the session's
// tuple after each round. Attribute names come once, from GET /v1/schema.
type sessionResponse struct {
	// Token is opaque to clients; encoding/json carries the bytes as one
	// base64 string.
	Token     []byte `json:"token"`
	Suggested []int  `json:"suggested"`
	// FixedAttrs/FixedValues are the cells the rules fixed in the round
	// that minted the token — after a rebase, every cell the users did not
	// assert — aligned like an answer's attrs/values and absent when
	// there are none. /v1/suggest repeats them; writing them twice
	// changes nothing.
	FixedAttrs  []int              `json:"fixedAttrs,omitempty"`
	FixedValues []certainfix.Value `json:"fixedValues,omitempty"`
	Rounds      int                `json:"rounds"`
	Done        bool               `json:"done"`
	Completed   bool               `json:"completed"`
	Epoch       uint64             `json:"epoch"`
	// Root is the Merkle root of the session's pinned master snapshot,
	// absent on an unauthenticated master. POST /v1/result returns the inclusion
	// proofs that tie the fix's provenance to it.
	Root string `json:"root,omitempty"`
}

func (s *server) sessionReply(w http.ResponseWriter, sess *certainfix.FixSession) {
	token, err := sess.MarshalBinary()
	if err != nil {
		writeErr(w, fmt.Errorf("serialize session: %w", err))
		return
	}
	suggested := sess.Suggested()
	if suggested == nil {
		suggested = []int{}
	}
	reply := sessionResponse{
		Token:     token,
		Suggested: suggested,
		Rounds:    sess.Rounds(),
		Done:      sess.Done(),
		Completed: sess.Completed(),
		Epoch:     sess.Epoch(),
		Root:      sess.Root(),
	}
	if fixed := sess.Fixed(); fixed.Len() > 0 {
		t := sess.Tuple()
		reply.FixedAttrs = fixed.Positions()
		reply.FixedValues = make([]certainfix.Value, len(reply.FixedAttrs))
		for i, p := range reply.FixedAttrs {
			reply.FixedValues[i] = t[p]
		}
	}
	writeJSON(w, http.StatusOK, reply)
}

type beginRequest struct {
	Tuple certainfix.Tuple `json:"tuple"`
}

func (s *server) handleBegin(w http.ResponseWriter, r *http.Request) {
	var req beginRequest
	if !readJSON(w, r, &req) {
		return
	}
	sess, err := s.sys.Begin(r.Context(), req.Tuple)
	if err != nil {
		writeErr(w, err)
		return
	}
	s.sessionReply(w, sess)
}

type tokenRequest struct {
	Token []byte `json:"token"`
	// Rebase accepts re-pinning the current master head when the token's
	// original epoch has been evicted (see certainfix.RebaseToHead).
	Rebase bool `json:"rebase,omitempty"`
}

func (s *server) resume(r *http.Request, req tokenRequest) (*certainfix.FixSession, error) {
	var opts []certainfix.ResumeOption
	if req.Rebase {
		opts = append(opts, certainfix.RebaseToHead())
	}
	return s.sys.Resume(r.Context(), req.Token, opts...)
}

func (s *server) handleSuggest(w http.ResponseWriter, r *http.Request) {
	var req tokenRequest
	if !readJSON(w, r, &req) {
		return
	}
	sess, err := s.resume(r, req)
	if err != nil {
		writeErr(w, err)
		return
	}
	s.sessionReply(w, sess)
}

type answerRequest struct {
	tokenRequest
	// Attrs/Values are the asserted positions and their values, aligned.
	// Attrs may differ from the last suggestion; empty Attrs aborts the
	// session (§5: the users declined).
	Attrs  []int              `json:"attrs"`
	Values []certainfix.Value `json:"values"`
}

func (s *server) handleAnswer(w http.ResponseWriter, r *http.Request) {
	var req answerRequest
	if !readJSON(w, r, &req) {
		return
	}
	sess, err := s.resume(r, req.tokenRequest)
	if err != nil {
		writeErr(w, err)
		return
	}
	if err := sess.Provide(req.Attrs, req.Values); err != nil {
		writeErr(w, err)
		return
	}
	s.sessionReply(w, sess)
}

func (s *server) handleResult(w http.ResponseWriter, r *http.Request) {
	var req tokenRequest
	if !readJSON(w, r, &req) {
		return
	}
	sess, err := s.resume(r, req)
	if err != nil {
		writeErr(w, err)
		return
	}
	// The result's own appender writes it straight into the reply buffer.
	res := sess.Result()
	buf := replyBuffers.Get().(*bytes.Buffer)
	defer replyBuffers.Put(buf)
	buf.Reset()
	b, err := res.AppendJSON(append(buf.AvailableBuffer(), `{"result":`...))
	if err != nil {
		writeErr(w, fmt.Errorf("encode result: %w", err))
		return
	}
	buf.Write(append(b, "}\n"...))
	writeReply(w, http.StatusOK, buf)
}

type updateMasterRequest struct {
	Adds    []certainfix.Tuple `json:"adds"`
	Deletes []int              `json:"deletes"`
}

func (s *server) handleUpdateMaster(w http.ResponseWriter, r *http.Request) {
	var req updateMasterRequest
	if !readJSON(w, r, &req) {
		return
	}
	epoch, err := s.sys.UpdateMaster(req.Adds, req.Deletes)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Epoch      uint64 `json:"epoch"`
		MasterSize int    `json:"masterSize"`
	}{epoch, s.sys.MasterLen()})
}

// readJSON decodes the request body — exactly one JSON value — into dst,
// replying 400 on failure.
func readJSON(w http.ResponseWriter, r *http.Request, dst any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	err := dec.Decode(dst)
	if err == nil {
		if _, more := dec.Token(); more != io.EOF {
			err = errors.New("trailing data after the JSON value")
		}
	}
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errBody(err, "bad_request"))
		return false
	}
	return true
}

// replyBuffers recycles the buffers replies are encoded into.
var replyBuffers = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func writeJSON(w http.ResponseWriter, status int, body any) {
	buf := replyBuffers.Get().(*bytes.Buffer)
	defer replyBuffers.Put(buf)
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(body); err != nil {
		buf.Reset()
		status = http.StatusInternalServerError
		// An error body is two strings: encoding it cannot fail.
		_ = json.NewEncoder(buf).Encode(errBody(fmt.Errorf("encode reply: %w", err), "internal"))
	}
	writeReply(w, status, buf)
}

// writeReply sends the encoded reply in buf.
func writeReply(w http.ResponseWriter, status int, buf *bytes.Buffer) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes()) // the client hanging up is not the server's error
}

// errorBody is every non-2xx reply: a human-readable message and a
// machine-readable code.
type errorBody struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

func errBody(err error, code string) errorBody {
	return errorBody{Error: err.Error(), Code: code}
}

// writeErr maps the library's typed sentinels onto HTTP statuses and
// machine-readable codes — the errors.Is contract of the API at work.
func writeErr(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, certainfix.ErrBadToken), errors.Is(err, certainfix.ErrArityMismatch),
		errors.Is(err, certainfix.ErrMasterBuild):
		// ErrMasterBuild here is a delta the master refused — a delete id
		// out of range or named twice, an add of the wrong arity or cell
		// type: the client's to correct, refused before the log saw it.
		writeJSON(w, http.StatusBadRequest, errBody(err, "invalid_input"))
	case errors.Is(err, certainfix.ErrEpochEvicted):
		// Conflict, not 400: the token was valid; the server's retention
		// moved on. The client may retry with "rebase": true.
		writeJSON(w, http.StatusConflict, errBody(err, "epoch_evicted"))
	case errors.Is(err, certainfix.ErrEpochAhead):
		// Unavailable, not 409: the token is from this lineage's future —
		// a follower that has not caught up with the leader that minted
		// it. Nothing is wrong with the request; the same one succeeds
		// once the epoch has been shipped, and "rebase" must not be tried.
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, errBody(err, "epoch_ahead"))
	case errors.Is(err, certainfix.ErrSessionDone):
		writeJSON(w, http.StatusConflict, errBody(err, "session_done"))
	case errors.Is(err, certainfix.ErrReadOnlyReplica):
		// Forbidden, not 409: retrying here can never succeed — the
		// write belongs on the leader this replica follows.
		writeJSON(w, http.StatusForbidden, errBody(err, "read_only_replica"))
	case errors.Is(err, certainfix.ErrInconsistent):
		writeJSON(w, http.StatusConflict, errBody(err, "inconsistent"))
	default:
		writeJSON(w, http.StatusInternalServerError, errBody(err, "internal"))
	}
}
