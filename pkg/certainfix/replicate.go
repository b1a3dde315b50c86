package certainfix

// Epoch shipping: follower replicas over the durable lineage. A leader
// built WithWAL already owns the authoritative epoch sequence — every
// UpdateMaster is one WAL record stamped with its epoch and Merkle root.
// ServeWAL streams those records over HTTP past the log's durability
// watermark, ServeCheckpoint serves the newest (authenticated) arena
// image, and NewFollower builds a read-only System that tails the two:
// bootstrap from the checkpoint, apply shipped records through
// master.Versioned.ApplyRecord — the guarded apply recovery replays the
// log through, which checks every record's root — and catch up from the
// checkpoint again whenever the leader truncates epochs out from under
// it. A follower at epoch E is therefore probe-for-probe identical to the
// leader at E, and session tokens minted on either node resume on the
// other. A leader whose head is behind the follower's, or whose record
// at an epoch yields another root, is another lineage: the follower
// stops, diverged.
//
// The wire protocol is the WAL's own frame format (length + CRC-32C +
// varint payload): ServeWAL decodes each acknowledged record through
// TailWAL and re-encodes it with wal.AppendFrame, and the follower reads
// it back with wal.ReadFrame, which checks a frame exactly as the log's
// own readers do. The one rule the frames cannot carry is the truncation
// rule: the leader's log holds
// (checkpointEpoch, head], so a request for epochs at or before the
// checkpoint is answered 409 {"code": "wal_truncated"} — the follower's
// cue to GET /v1/checkpoint and rebase. An empty stream is never that
// cue on its own: an empty directory cannot say "truncated".

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/master"
	"repro/internal/wal"
)

// ErrReadOnlyReplica reports an UpdateMaster on a follower System: a
// replica's lineage is the leader's, and local writes would fork it.
// Send the write to the leader instead. (Checkpoint is not a write to the
// lineage: a follower owns no checkpoint, so there it is the same no-op
// as on a memory-only System.)
var ErrReadOnlyReplica = errors.New("certainfix: read-only follower replica")

// ErrReplicaDiverged reports that a shipped record contradicts the
// follower's lineage — the two nodes disagree about the same epoch.
// Unlike falling behind a truncation this is not recoverable by catching
// up; the follower stops applying and a human is needed. It surfaces in
// ReplicationStats.LastError and matches through errors.Is.
var ErrReplicaDiverged = master.ErrDivergence

// walIdleTimeout bounds how long ServeWAL holds an up-to-date stream
// open waiting for new epochs. Short enough that server shutdown (which
// waits for active handlers) stays inside its budget; followers
// reconnect immediately on a clean end of stream.
const walIdleTimeout = 2 * time.Second

// checkpointFetchTimeout bounds one GET /v1/checkpoint round trip.
const checkpointFetchTimeout = 60 * time.Second

// replicaMaxBackoff caps the follower's reconnect backoff.
const replicaMaxBackoff = 2 * time.Second

// ServeWAL is the leader half of epoch shipping: GET /v1/wal?after=E
// streams the WAL records with epoch > E, each re-encoded as one
// wal.AppendFrame frame (wal.ReadFrame decodes them), flushing as they
// land and then
// long-polling the durability watermark briefly so a live follower sees
// new epochs without re-requesting. Only acknowledged records are
// shipped, and every acknowledged record is fsynced: a shipped record is a
// durable record.
// Requests for epochs the log no longer holds (truncated behind the
// checkpoint) are answered 409 {"code": "wal_truncated"}; a System
// without WithWAL answers 404 {"code": "not_durable"}.
func (s *System) ServeWAL(w http.ResponseWriter, r *http.Request) {
	dur, ok := s.lin.(*master.DurableVersioned)
	if !ok {
		replyJSONError(w, http.StatusNotFound, "not_durable",
			"this system has no durable lineage to ship (start it WithWAL)")
		return
	}
	after, err := parseAfter(r.URL.Query().Get("after"))
	if err != nil {
		replyJSONError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	// The log covers (checkpointEpoch, head]: anything at or before the
	// checkpoint is gone, and only the checkpoint image can say what it
	// said. This check is the protocol's catch-up rule — without it an
	// empty stream is indistinguishable from "up to date".
	st := dur.Durability()
	if after < st.CheckpointEpoch {
		w.Header().Set("X-Checkpoint-Epoch", strconv.FormatUint(st.CheckpointEpoch, 10))
		replyJSONError(w, http.StatusConflict, "wal_truncated",
			fmt.Sprintf("epochs through %d are truncated into the checkpoint; catch up from /v1/checkpoint", st.CheckpointEpoch))
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	// Durability reads the head under the lock Apply holds from log to
	// publish, so this is never behind a record already shipped: a
	// follower ahead of it is following another lineage.
	w.Header().Set("X-Leader-Epoch", strconv.FormatUint(st.Epoch, 10))
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	last := after
	var buf []byte
	for {
		n, err := dur.TailWAL(last, func(rec wal.Record) error {
			var ferr error
			if buf, ferr = wal.AppendFrame(buf[:0], rec); ferr != nil {
				return ferr
			}
			if _, werr := w.Write(buf); werr != nil {
				return werr
			}
			last = rec.Epoch
			return nil
		})
		if err != nil {
			// The client went away mid-write, or a checkpoint truncated the
			// segments under the tail. Either way the stream is over; the
			// follower re-requests and the 409 check above routes it.
			return
		}
		if n > 0 && flusher != nil {
			flusher.Flush()
		}
		synced, ch := dur.WALSynced()
		if synced > last {
			continue
		}
		select {
		case <-r.Context().Done():
			return
		case <-ch:
			if e, _ := dur.WALSynced(); e <= last {
				return // watermark channel closed: the log is shutting down
			}
		case <-time.After(walIdleTimeout):
			return // clean end of stream; the follower reconnects at once
		}
	}
}

// ServeCheckpoint serves the newest durable arena checkpoint — the image
// a follower loads to bootstrap or to catch up past a truncation. The
// epoch the image is at travels in the X-Checkpoint-Epoch header; the
// body is the raw arena (master.LoadArenaBytes reads it). A System
// without WithWAL answers 404 {"code": "not_durable"}.
func (s *System) ServeCheckpoint(w http.ResponseWriter, r *http.Request) {
	dur, ok := s.lin.(*master.DurableVersioned)
	if !ok {
		replyJSONError(w, http.StatusNotFound, "not_durable",
			"this system has no checkpoint to serve (start it WithWAL)")
		return
	}
	raw, epoch, err := dur.CheckpointImage()
	if err != nil {
		replyJSONError(w, http.StatusInternalServerError, "internal", err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Checkpoint-Epoch", strconv.FormatUint(epoch, 10))
	w.Header().Set("Content-Length", strconv.Itoa(len(raw)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(raw)
}

// parseAfter reads the ?after= query value; absent means 0 (ship
// everything the log holds).
func parseAfter(q string) (uint64, error) {
	if q == "" {
		return 0, nil
	}
	after, err := strconv.ParseUint(q, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("certainfix: bad after epoch %q", q)
	}
	return after, nil
}

// replyJSONError writes the same {"error", "code"} shape, escaped by the
// same encoder, as certainfixd, so follower-side handling is uniform
// whether the leader endpoint is mounted by the daemon or by a custom mux.
func replyJSONError(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	b := String(msg).AppendJSON([]byte(`{"error":`))
	b = String(code).AppendJSON(append(b, `,"code":`...))
	_, _ = w.Write(append(b, "}\n"...))
}

// ReplicaState is where a follower's shipping loop currently is.
type ReplicaState string

// Follower shipping-loop states.
const (
	// ReplicaTailing: streaming records from the leader's WAL.
	ReplicaTailing ReplicaState = "tailing"
	// ReplicaCatchingUp: rebasing onto the leader's checkpoint after
	// falling behind a truncation.
	ReplicaCatchingUp ReplicaState = "catching_up"
	// ReplicaRetrying: the leader is unreachable; backing off.
	ReplicaRetrying ReplicaState = "retrying"
	// ReplicaDiverged: a shipped record contradicted the local lineage;
	// the loop has stopped and LastError says why. Terminal.
	ReplicaDiverged ReplicaState = "diverged"
	// ReplicaStopped: Close was called. Terminal.
	ReplicaStopped ReplicaState = "stopped"
)

// ReplicationStats is the observable replication state of a follower
// System; cmd/certainfixd serves it on /healthz.
type ReplicationStats struct {
	// Leader is the base URL being followed.
	Leader string `json:"leader"`
	// State is where the shipping loop is.
	State ReplicaState `json:"state"`
	// Epoch is the follower's published head.
	Epoch uint64 `json:"epoch"`
	// LeaderEpoch is the leader's head as last observed (headers and
	// shipped records); it can trail the leader's true head by a poll.
	LeaderEpoch uint64 `json:"leaderEpoch"`
	// Lag is max(LeaderEpoch-Epoch, 0) — how many observed epochs the
	// follower has yet to apply.
	Lag uint64 `json:"lag"`
	// Root is the hex Merkle root of the follower's head. Every applied
	// epoch was already audited against the leader's shipped root, so
	// comparing this against the leader's /v1/root is a liveness check,
	// not the integrity check — that one already happened.
	Root string `json:"root,omitempty"`
	// Catchups counts checkpoint rebases (bootstrap not included).
	Catchups int `json:"catchups"`
	// Reconnects counts stream breaks that needed a backoff retry.
	Reconnects int `json:"reconnects"`
	// LastError is the most recent shipping error, empty when healthy.
	LastError string `json:"lastError,omitempty"`
}

// Replication reports the shipping state of a follower System; ok is
// false for a System that is not following anyone.
func (s *System) Replication() (stats ReplicationStats, ok bool) {
	rp, ok := s.lin.(*replica)
	if !ok {
		return ReplicationStats{}, false
	}
	return rp.stats(), true
}

// NewFollower builds a read-only replica of the certainfixd-compatible
// leader at leaderURL: it bootstraps from GET /v1/checkpoint, then tails
// GET /v1/wal in the background, publishing each shipped epoch through
// the same guarded path recovery uses. The returned System serves every
// read — Begin, Resume, Fix, Suggest, Repair — against the replicated
// lineage; UpdateMaster fails with ErrReadOnlyReplica. Close stops the
// shipping loop.
//
// The follower owns no WAL of its own (WithWAL is rejected): the
// leader's directory is the durable truth, and a restarted follower
// re-bootstraps from the leader's checkpoint.
func NewFollower(rules *Rules, leaderURL string, opts ...Option) (*System, error) {
	cfg := newConfig(opts)
	if cfg.walDir != "" {
		return nil, fmt.Errorf("certainfix: a follower cannot own a WAL directory — the leader's lineage is authoritative")
	}
	cfg.leader = strings.TrimRight(leaderURL, "/")
	return open(rules, cfg, nil) // a follower's base is the leader's checkpoint
}

// follow bootstraps a replica from the checkpoint of the leader at
// cfg.leader and starts its shipping loop.
func follow(rules *Rules, cfg config) (*replica, error) {
	ctx, cancel := context.WithCancel(context.Background())
	rp := &replica{
		leader: cfg.leader,
		rules:  rules,
		// No client-level timeout: /v1/wal intentionally long-polls. The
		// run context cancels in-flight requests on Close.
		client:    &http.Client{},
		runCancel: cancel,
		done:      make(chan struct{}),
		state:     ReplicaTailing,
	}
	img, epoch, err := rp.fetchCheckpoint(ctx)
	if err != nil {
		cancel()
		return nil, fmt.Errorf("certainfix: follower bootstrap from %s: %w", rp.leader, err)
	}
	rp.ver = master.NewVersioned(img)
	if cfg.history > 0 {
		rp.ver.SetHistory(cfg.history)
	}
	rp.leaderEpoch = epoch
	go rp.run(ctx)
	return rp, nil
}

// replica is the shipping loop behind a follower System, and its lineage.
type replica struct {
	leader    string
	rules     *Rules
	client    *http.Client
	ver       *master.Versioned // the leader's lineage; only ApplyRecord and Reset advance it
	runCancel context.CancelFunc
	done      chan struct{}

	mu          sync.Mutex
	state       ReplicaState
	leaderEpoch uint64
	catchups    int
	reconnects  int
	lastErr     string
}

// errWALTruncated is the client-side rendering of the leader's 409: the
// epochs after our head were truncated into the checkpoint.
var errWALTruncated = errors.New("certainfix: leader truncated the requested epochs")

// run is the shipping loop: tail until the stream ends, then decide —
// reconnect (clean end), rebase onto the checkpoint (truncation or gap),
// back off (transport failure) or stop (divergence, Close).
func (rp *replica) run(ctx context.Context) {
	defer close(rp.done)
	backoff := 50 * time.Millisecond
	for ctx.Err() == nil {
		err := rp.tailOnce(ctx)
		switch {
		case ctx.Err() != nil:
			// Close cancelled us mid-request; whatever err says, we are done.
		case err == nil:
			// Clean end of stream (the leader's idle timeout): reconnect.
			backoff = 50 * time.Millisecond
		case errors.Is(err, master.ErrDivergence):
			rp.setState(ReplicaDiverged, err.Error())
			return
		case errors.Is(err, errWALTruncated), errors.Is(err, master.ErrReplicaGap):
			rp.setState(ReplicaCatchingUp, "")
			if cerr := rp.catchUp(ctx); cerr != nil {
				rp.setState(ReplicaRetrying, cerr.Error())
				backoff = rp.sleep(ctx, backoff)
			} else {
				rp.mu.Lock()
				rp.catchups++
				rp.state = ReplicaTailing
				rp.lastErr = ""
				rp.mu.Unlock()
				backoff = 50 * time.Millisecond
			}
		default:
			rp.mu.Lock()
			rp.reconnects++
			rp.state = ReplicaRetrying
			rp.lastErr = err.Error()
			rp.mu.Unlock()
			backoff = rp.sleep(ctx, backoff)
		}
	}
	rp.setState(ReplicaStopped, "")
}

// tailOnce issues one GET /v1/wal?after=<head> and applies every frame
// the response carries until the stream ends.
func (rp *replica) tailOnce(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		fmt.Sprintf("%s/v1/wal?after=%d", rp.leader, rp.ver.Epoch()), nil)
	if err != nil {
		return err
	}
	resp, err := rp.client.Do(req)
	if err != nil {
		return err
	}
	defer func() {
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
		resp.Body.Close()
	}()
	if le, perr := strconv.ParseUint(resp.Header.Get("X-Leader-Epoch"), 10, 64); perr == nil {
		if head := rp.ver.Epoch(); le < head {
			// Every epoch we hold came from a leader that had reached it: one
			// that is behind us is not the lineage we followed, and its next
			// records would land on top of another leader's.
			return &master.DivergenceError{Epoch: le, Head: head,
				Msg: fmt.Sprintf("leader %s is at epoch %d, behind this replica's head %d", rp.leader, le, head)}
		}
		rp.observeLeader(le)
	}
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusConflict:
		return errWALTruncated
	default:
		return fmt.Errorf("certainfix: leader %s /v1/wal: %s", rp.leader, resp.Status)
	}
	rp.setState(ReplicaTailing, "")
	br := bufio.NewReader(resp.Body)
	for {
		rec, err := wal.ReadFrame(br)
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			// Mid-frame break or a corrupt frame: drop the connection and
			// re-request from our head — frames are idempotent to re-apply
			// (ApplyRecord skips epochs at or below it).
			return err
		}
		if _, err := rp.ver.ApplyRecord(rec); err != nil {
			return err
		}
		rp.observeLeader(rec.Epoch)
	}
}

// catchUp rebases the follower onto the leader's current checkpoint.
// A checkpoint at or behind our head is not an error — the truncation
// raced us and the next tail resumes from where we are.
func (rp *replica) catchUp(ctx context.Context) error {
	img, epoch, err := rp.fetchCheckpoint(ctx)
	if err != nil {
		return err
	}
	if img.Epoch() <= rp.ver.Epoch() {
		return nil
	}
	if err := rp.ver.Reset(img); err != nil {
		return err
	}
	rp.observeLeader(epoch)
	return nil
}

// fetchCheckpoint GETs /v1/checkpoint and loads the arena image,
// cross-checking the X-Checkpoint-Epoch header against the image's own
// epoch — a mismatch means the leader is lying about its lineage.
func (rp *replica) fetchCheckpoint(ctx context.Context) (*master.Data, uint64, error) {
	cctx, cancel := context.WithTimeout(ctx, checkpointFetchTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(cctx, http.MethodGet, rp.leader+"/v1/checkpoint", nil)
	if err != nil {
		return nil, 0, err
	}
	resp, err := rp.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, 0, fmt.Errorf("certainfix: leader %s /v1/checkpoint: %s: %s",
			rp.leader, resp.Status, bytes.TrimSpace(msg))
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, 0, err
	}
	img, err := master.LoadArenaBytes(raw, rp.rules)
	if err != nil {
		return nil, 0, err
	}
	if !img.Authenticated() {
		// Every shipped record is checked against the root its base carries.
		return nil, 0, &master.SnapshotError{Section: "auth", Offset: -1, Msg: "leader image carries no Merkle root"}
	}
	epoch := img.Epoch()
	if h := resp.Header.Get("X-Checkpoint-Epoch"); h != "" {
		claimed, perr := strconv.ParseUint(h, 10, 64)
		if perr != nil {
			return nil, 0, fmt.Errorf("certainfix: leader %s: bad X-Checkpoint-Epoch %q", rp.leader, h)
		}
		if claimed != epoch {
			return nil, 0, fmt.Errorf("certainfix: leader %s checkpoint image at epoch %d but header claims %d",
				rp.leader, epoch, claimed)
		}
	}
	return img, epoch, nil
}

// sleep backs off (cancellably) and returns the next backoff.
func (rp *replica) sleep(ctx context.Context, d time.Duration) time.Duration {
	select {
	case <-ctx.Done():
	case <-time.After(d):
	}
	if d *= 2; d > replicaMaxBackoff {
		d = replicaMaxBackoff
	}
	return d
}

// observeLeader raises the observed leader epoch (never lowers it).
func (rp *replica) observeLeader(epoch uint64) {
	rp.mu.Lock()
	if epoch > rp.leaderEpoch {
		rp.leaderEpoch = epoch
	}
	rp.mu.Unlock()
}

// setState records state, preserving a terminal diverged state (Close
// after divergence must not relabel the lineage as merely stopped).
func (rp *replica) setState(st ReplicaState, lastErr string) {
	rp.mu.Lock()
	if rp.state != ReplicaDiverged {
		rp.state = st
		rp.lastErr = lastErr
	}
	rp.mu.Unlock()
}

// stats snapshots the observable replication state.
func (rp *replica) stats() ReplicationStats {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	head := rp.ver.Current()
	epoch := head.Epoch()
	var lag uint64
	if rp.leaderEpoch > epoch {
		lag = rp.leaderEpoch - epoch
	}
	root, _ := head.AuthRoot()
	return ReplicationStats{
		Leader:      rp.leader,
		State:       rp.state,
		Epoch:       epoch,
		LeaderEpoch: rp.leaderEpoch,
		Lag:         lag,
		Root:        root.String(),
		Catchups:    rp.catchups,
		Reconnects:  rp.reconnects,
		LastError:   rp.lastErr,
	}
}

// Versioned exposes the replicated snapshot ring for reads.
func (rp *replica) Versioned() *master.Versioned { return rp.ver }

// Apply refuses the write: only shipped records advance a replica.
func (rp *replica) Apply([]Tuple, []int) (*master.Data, error) {
	return nil, fmt.Errorf("certainfix: update on follower of %s: %w", rp.leader, ErrReadOnlyReplica)
}

// Close cancels the shipping loop and waits for it to exit.
func (rp *replica) Close() error {
	rp.runCancel()
	<-rp.done
	return nil
}
