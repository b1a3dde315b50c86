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
// Request bodies are read into a pooled buffer and decoded by hand, and
// replies are encoded into one and sent with an explicit Content-Length
// (codec.go): an encoding failure is a 500, never a truncated 200, and
// no reply pays for chunked framing.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
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

// sessionReply answers begin / suggest / answer: the new token (the
// client must send it back on the next call — the server keeps nothing)
// plus what changed, never what the client already holds. The tuple is
// not resent: the begin tuple, plus the client's own answers, plus every
// reply's fixedAttrs/fixedValues is the session's tuple after each round
// (after a rebase, fixedAttrs is every cell the users did not assert;
// /v1/suggest repeats the last round's, and writing them twice changes
// nothing). Attribute names come once, from GET /v1/schema. The root is
// the Merkle root of the session's pinned master snapshot, absent on an
// unauthenticated master: POST /v1/result returns the inclusion proofs
// that tie the fix's provenance to it.
func (s *server) sessionReply(w http.ResponseWriter, sess *certainfix.FixSession) {
	token, err := sess.MarshalBinary()
	if err != nil {
		writeErr(w, fmt.Errorf("serialize session: %w", err))
		return
	}
	buf := buffers.Get().(*bytes.Buffer)
	defer putBuffer(buf)
	buf.Reset()
	buf.Write(appendSession(buf.AvailableBuffer(), sess, token))
	writeReply(w, http.StatusOK, buf)
}

func (s *server) handleBegin(w http.ResponseWriter, r *http.Request) {
	var req beginRequest
	body := readBody(w, r)
	if body == nil || !decoded(w, body, req.decode(body.Bytes())) {
		return
	}
	sess, err := s.sys.Begin(r.Context(), req.tuple)
	if err != nil {
		writeErr(w, err)
		return
	}
	s.sessionReply(w, sess)
}

func (s *server) resume(r *http.Request, req tokenRequest) (*certainfix.FixSession, error) {
	var opts []certainfix.ResumeOption
	if req.rebase {
		opts = append(opts, certainfix.RebaseToHead())
	}
	return s.sys.Resume(r.Context(), req.token, opts...)
}

func (s *server) handleSuggest(w http.ResponseWriter, r *http.Request) {
	var req tokenRequest
	body := readBody(w, r)
	if body == nil || !decoded(w, body, req.decode(body.Bytes())) {
		return
	}
	sess, err := s.resume(r, req)
	if err != nil {
		writeErr(w, err)
		return
	}
	s.sessionReply(w, sess)
}

func (s *server) handleAnswer(w http.ResponseWriter, r *http.Request) {
	var req answerRequest
	body := readBody(w, r)
	if body == nil || !decoded(w, body, req.decode(body.Bytes())) {
		return
	}
	sess, err := s.resume(r, req.tokenRequest)
	if err != nil {
		writeErr(w, err)
		return
	}
	if err := sess.Provide(req.attrs, req.values); err != nil {
		writeErr(w, err)
		return
	}
	s.sessionReply(w, sess)
}

func (s *server) handleResult(w http.ResponseWriter, r *http.Request) {
	var req tokenRequest
	body := readBody(w, r)
	if body == nil || !decoded(w, body, req.decode(body.Bytes())) {
		return
	}
	sess, err := s.resume(r, req)
	if err != nil {
		writeErr(w, err)
		return
	}
	// The result's own appender writes it straight into the reply buffer.
	res := sess.Result()
	buf := buffers.Get().(*bytes.Buffer)
	defer putBuffer(buf)
	buf.Reset()
	b, err := res.AppendJSON(append(buf.AvailableBuffer(), `{"result":`...))
	if err != nil {
		writeErr(w, fmt.Errorf("encode result: %w", err))
		return
	}
	buf.Write(append(b, "}\n"...))
	writeReply(w, http.StatusOK, buf)
}

func (s *server) handleUpdateMaster(w http.ResponseWriter, r *http.Request) {
	var req updateMasterRequest
	body := readBody(w, r)
	if body == nil || !decoded(w, body, req.decode(body.Bytes())) {
		return
	}
	epoch, err := s.sys.UpdateMaster(req.adds, req.deletes)
	if err != nil {
		writeErr(w, err)
		return
	}
	buf := buffers.Get().(*bytes.Buffer)
	defer putBuffer(buf)
	buf.Reset()
	b := strconv.AppendUint(append(buf.AvailableBuffer(), `{"epoch":`...), epoch, 10)
	b = strconv.AppendInt(append(b, `,"masterSize":`...), int64(s.sys.MasterLen()), 10)
	buf.Write(append(b, "}\n"...))
	writeReply(w, http.StatusOK, buf)
}

// buffers recycles the buffers request bodies are read and replies
// encoded into.
var buffers = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// putBuffer returns buf to the pool unless an outsized body grew it.
func putBuffer(buf *bytes.Buffer) {
	if buf.Cap() <= 64<<10 {
		buffers.Put(buf)
	}
}

// writeJSON encodes body with encoding/json: the replies off the session
// path.
func writeJSON(w http.ResponseWriter, status int, body any) {
	buf := buffers.Get().(*bytes.Buffer)
	defer putBuffer(buf)
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(body); err != nil {
		writeErrorBody(w, http.StatusInternalServerError, fmt.Errorf("encode reply: %w", err), "internal")
		return
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

// writeErrorBody sends every non-2xx reply: a human-readable message and a
// machine-readable code.
func writeErrorBody(w http.ResponseWriter, status int, err error, code string) {
	buf := buffers.Get().(*bytes.Buffer)
	defer putBuffer(buf)
	buf.Reset()
	buf.Write(appendError(buf.AvailableBuffer(), err, code))
	writeReply(w, status, buf)
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
		writeErrorBody(w, http.StatusBadRequest, err, "invalid_input")
	case errors.Is(err, certainfix.ErrEpochEvicted):
		// Conflict, not 400: the token was valid; the server's retention
		// moved on. The client may retry with "rebase": true.
		writeErrorBody(w, http.StatusConflict, err, "epoch_evicted")
	case errors.Is(err, certainfix.ErrEpochAhead):
		// Unavailable, not 409: the token is from this lineage's future —
		// a follower that has not caught up with the leader that minted
		// it. Nothing is wrong with the request; the same one succeeds
		// once the epoch has been shipped, and "rebase" must not be tried.
		w.Header().Set("Retry-After", "1")
		writeErrorBody(w, http.StatusServiceUnavailable, err, "epoch_ahead")
	case errors.Is(err, certainfix.ErrSessionDone):
		writeErrorBody(w, http.StatusConflict, err, "session_done")
	case errors.Is(err, certainfix.ErrReadOnlyReplica):
		// Forbidden, not 409: retrying here can never succeed — the
		// write belongs on the leader this replica follows.
		writeErrorBody(w, http.StatusForbidden, err, "read_only_replica")
	case errors.Is(err, certainfix.ErrInconsistent):
		writeErrorBody(w, http.StatusConflict, err, "inconsistent")
	default:
		writeErrorBody(w, http.StatusInternalServerError, err, "internal")
	}
}
