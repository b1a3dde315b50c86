package certainfix_test

// Epoch shipping at the API surface: a follower System bootstrapped over
// HTTP converges to the leader, keeps converging while the leader
// updates live, rebases from the checkpoint after a partition lets a
// truncation pass it by, serves reads (including session tokens minted
// on the leader), and refuses writes with the typed sentinel.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/pkg/certainfix"
)

// replicationLeader is the order/catalog fixture on a durable lineage
// with aggressive checkpoints, so truncation (and with it the follower
// catch-up path) actually happens inside a short test.
func replicationLeader(t *testing.T, dir string) (*certainfix.System, *certainfix.Rules) {
	t.Helper()
	r := certainfix.StringSchema("order", "sku", "price", "desc")
	rm := certainfix.StringSchema("catalog", "sku", "price", "desc")
	rules, err := certainfix.ParseRules(r, rm, `
rule price: (sku ; sku) -> (price ; price)
rule desc:  (sku ; sku) -> (desc ; desc)
`)
	if err != nil {
		t.Fatal(err)
	}
	masterRel := certainfix.NewRelation(rm)
	if err := masterRel.Append(skuTuple(1)); err != nil {
		t.Fatal(err)
	}
	sys, err := certainfix.New(rules, masterRel,
		certainfix.WithWAL(dir), testKey)
	if err != nil {
		t.Fatal(err)
	}
	return sys, rules
}

func skuTuple(i int) certainfix.Tuple {
	return certainfix.StringTuple(fmt.Sprintf("sku-%d", i), fmt.Sprintf("%d.50", i), fmt.Sprintf("item-%d", i))
}

func addSKU(t *testing.T, sys *certainfix.System, i int) {
	t.Helper()
	if _, err := sys.UpdateMaster([]certainfix.Tuple{skuTuple(i)}, nil); err != nil {
		t.Fatalf("update sku-%d: %v", i, err)
	}
}

// waitFor polls cond until it holds or the deadline trips.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestFollowerReplication(t *testing.T) {
	leader, rules := replicationLeader(t, t.TempDir())
	defer leader.Close()
	// Storm before the follower exists, then a checkpoint that truncates
	// the early epochs, so the bootstrap MUST come from the checkpoint
	// image.
	for i := 2; i <= 6; i++ {
		addSKU(t, leader, i)
	}
	if err := leader.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/wal", leader.ServeWAL)
	mux.HandleFunc("GET /v1/checkpoint", leader.ServeCheckpoint)
	// The partition switch: while set, every request fails at the
	// transport level, exactly like a leader behind a dead link.
	var partitioned atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if partitioned.Load() {
			http.Error(w, "partitioned", http.StatusBadGateway)
			return
		}
		mux.ServeHTTP(w, r)
	}))
	defer ts.Close()

	// A request from before the checkpoint answers the protocol's 409 —
	// the rule that makes an empty stream distinguishable from truncation.
	resp, err := http.Get(ts.URL + "/v1/wal?after=0")
	if err != nil {
		t.Fatal(err)
	}
	var conflict struct {
		Code string `json:"code"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&conflict); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict || conflict.Code != "wal_truncated" {
		t.Fatalf("after=0 behind checkpoint: status %d code %q", resp.StatusCode, conflict.Code)
	}
	if resp.Header.Get("X-Checkpoint-Epoch") == "" {
		t.Fatal("409 carries no X-Checkpoint-Epoch")
	}

	follower, err := certainfix.NewFollower(rules, ts.URL, testKey) // a leader and its followers share the token key
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	waitFor(t, "initial convergence", func() bool {
		return follower.MasterEpoch() == leader.MasterEpoch()
	})
	if follower.MasterLen() != leader.MasterLen() {
		t.Fatalf("converged |Dm| %d, leader %d", follower.MasterLen(), leader.MasterLen())
	}

	// Live tailing: updates land on the follower without reconnect churn.
	for i := 7; i <= 9; i++ {
		addSKU(t, leader, i)
	}
	waitFor(t, "live tail convergence", func() bool {
		return follower.MasterEpoch() == leader.MasterEpoch()
	})

	// Partition the follower, move the leader past a truncation, heal:
	// the follower's next tail gets 409 and must rebase from the
	// checkpoint.
	partitioned.Store(true)
	waitFor(t, "follower to notice the partition", func() bool {
		st, _ := follower.Replication()
		return st.Reconnects >= 1
	})
	for i := 10; i <= 13; i++ {
		addSKU(t, leader, i)
	}
	if err := leader.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	partitioned.Store(false)
	waitFor(t, "post-partition convergence", func() bool {
		return follower.MasterEpoch() == leader.MasterEpoch()
	})
	st, ok := follower.Replication()
	if !ok {
		t.Fatal("follower reports no replication stats")
	}
	if st.Catchups < 1 {
		t.Fatalf("follower never rebased from the checkpoint: %+v", st)
	}
	if st.Lag != 0 || st.State != certainfix.ReplicaTailing {
		t.Fatalf("converged follower unhealthy: %+v", st)
	}

	// Reads are the leader's reads: same repair, byte for byte.
	dirty := certainfix.StringTuple("sku-12", "0.00", "junk")
	wantT, _, wantFixed, err := leader.RepairOnce(dirty, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	gotT, _, gotFixed, err := follower.RepairOnce(dirty, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if len(gotFixed) != len(wantFixed) || gotT[1].Str() != wantT[1].Str() || gotT[2].Str() != wantT[2].Str() {
		t.Fatalf("follower repaired %v -> %v, leader %v -> %v", gotFixed, gotT, wantFixed, wantT)
	}

	// A session token minted on the leader resumes on the follower —
	// the stateless-server pattern across nodes — its references resolved
	// against the follower's symbol table.
	ctx := context.Background()
	sess, err := leader.Begin(ctx, certainfix.StringTuple("sku-11", "", ""))
	if err != nil {
		t.Fatal(err)
	}
	token, err := sess.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if referenceCells(t, token) == 0 {
		t.Fatal("the token names no master value by symbol id: the follower's table is not exercised")
	}
	resumed, err := follower.Resume(ctx, token)
	if err != nil {
		t.Fatalf("resume leader token on follower: %v", err)
	}
	truth := skuTuple(11)
	for rounds := 0; !resumed.Done(); rounds++ {
		if rounds > 4 {
			t.Fatal("resumed session did not finish")
		}
		attrs := resumed.Suggested()
		vals := make([]certainfix.Value, len(attrs))
		for i, p := range attrs {
			vals[i] = truth[p]
		}
		if err := resumed.Provide(attrs, vals); err != nil {
			t.Fatal(err)
		}
	}
	if !resumed.Completed() || resumed.Tuple()[1].Str() != "11.50" {
		t.Fatalf("resumed fix on follower: completed=%v tuple=%v", resumed.Completed(), resumed.Tuple())
	}

	// Writes are refused with the typed sentinel; the leader still writes.
	if _, err := follower.UpdateMaster([]certainfix.Tuple{skuTuple(99)}, nil); !errors.Is(err, certainfix.ErrReadOnlyReplica) {
		t.Fatalf("follower write: want ErrReadOnlyReplica, got %v", err)
	}
	// Checkpoint is not a write: a follower owns no checkpoint, so it is
	// the documented no-op of a System without a WAL, not an error.
	if err := follower.Checkpoint(); err != nil {
		t.Fatalf("follower Checkpoint: want the no-op nil, got %v", err)
	}
	if _, ok := follower.Durability(); ok {
		t.Fatal("a follower must not report a durable lineage of its own")
	}
	addSKU(t, leader, 14)
	waitFor(t, "convergence after refused write", func() bool {
		return follower.MasterEpoch() == leader.MasterEpoch()
	})
}

// switchableLeader serves sys's shipping endpoints at the returned URL
// until pointAt moves that URL onto another leader — a follower that
// reconnects then talks to the new one without being told.
func switchableLeader(t *testing.T, sys *certainfix.System) (url string, pointAt func(*certainfix.System)) {
	t.Helper()
	var current atomic.Pointer[http.ServeMux]
	pointAt = func(sys *certainfix.System) {
		mux := http.NewServeMux()
		mux.HandleFunc("GET /v1/wal", sys.ServeWAL)
		mux.HandleFunc("GET /v1/checkpoint", sys.ServeCheckpoint)
		current.Store(mux)
	}
	pointAt(sys)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		current.Load().ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	return ts.URL, pointAt
}

// TestFollowerRefusesLeaderBehindIt: a follower converged on leader A at
// epoch 5 that is pointed at leader B — same base, still at epoch 0 — must
// not tail it. B's next epochs are not A's, and taking them on top of A's
// would publish a lineage neither leader has. The follower stops diverged,
// names both epochs, and stays at A's head while B moves on.
func TestFollowerRefusesLeaderBehindIt(t *testing.T) {
	leaderA, rules := replicationLeader(t, t.TempDir())
	defer leaderA.Close()
	leaderB, _ := replicationLeader(t, t.TempDir())
	defer leaderB.Close()
	for i := 2; i <= 6; i++ {
		addSKU(t, leaderA, i)
	}
	url, pointAt := switchableLeader(t, leaderA)
	follower, err := certainfix.NewFollower(rules, url, testKey)
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	waitFor(t, "convergence on leader A", func() bool { return follower.MasterEpoch() == 5 })
	lenA := follower.MasterLen()

	pointAt(leaderB)
	waitFor(t, "divergence from leader B", func() bool {
		st, _ := follower.Replication()
		return st.State == certainfix.ReplicaDiverged
	})
	for i := 100; i < 108; i++ {
		addSKU(t, leaderB, i)
	}
	time.Sleep(100 * time.Millisecond) // room for a wrongly live loop to take B's records
	st, _ := follower.Replication()
	if st.State != certainfix.ReplicaDiverged || st.Epoch != 5 || follower.MasterEpoch() != 5 || follower.MasterLen() != lenA {
		t.Fatalf("follower took leader B's lineage: %+v, |Dm| %d (A's %d)", st, follower.MasterLen(), lenA)
	}
	if !strings.Contains(st.LastError, "epoch 0") || !strings.Contains(st.LastError, "head 5") {
		t.Fatalf("LastError does not name both epochs: %q", st.LastError)
	}
}

// TestFollowerRefusesEqualEpochLeader: a follower converged on leader A at
// epoch 5 that is pointed at leader B — also at epoch 5, but over other
// content — sees no epoch gap to refuse. B's epoch 6 gives it away: the
// root shipped with the record is not the one the record yields on A's
// content. The follower ends diverged, keeps A's head epoch, |Dm| and
// root, and never applies the record; over three draws of B's content
// and of its epoch-6 delta (an add or a delete).
func TestFollowerRefusesEqualEpochLeader(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			leaderA, rules := replicationLeader(t, t.TempDir())
			defer leaderA.Close()
			leaderB, _ := replicationLeader(t, t.TempDir())
			defer leaderB.Close()
			for i := 2; i <= 6; i++ {
				addSKU(t, leaderA, i)
				addSKU(t, leaderB, 100+rng.Intn(900)) // never one of A's
			}
			url, pointAt := switchableLeader(t, leaderA)
			follower, err := certainfix.NewFollower(rules, url, testKey)
			if err != nil {
				t.Fatal(err)
			}
			defer follower.Close()
			waitFor(t, "convergence on leader A", func() bool { return follower.MasterEpoch() == 5 })
			lenA := follower.MasterLen()
			rootA, _ := follower.MasterRoot()

			pointAt(leaderB)
			if rng.Intn(2) == 0 {
				addSKU(t, leaderB, 100+rng.Intn(900))
			} else if _, err := leaderB.UpdateMaster(nil, []int{rng.Intn(leaderB.MasterLen())}); err != nil {
				t.Fatal(err)
			}
			waitFor(t, "divergence from leader B", func() bool {
				st, _ := follower.Replication()
				return st.State == certainfix.ReplicaDiverged
			})
			time.Sleep(100 * time.Millisecond) // room for a wrongly live loop to take B's record
			st, _ := follower.Replication()
			root, _ := follower.MasterRoot()
			if st.State != certainfix.ReplicaDiverged || st.Epoch != 5 || follower.MasterEpoch() != 5 ||
				follower.MasterLen() != lenA || root != rootA {
				t.Fatalf("follower took leader B's record: %+v, |Dm| %d (A's %d), root %s (A's %s)",
					st, follower.MasterLen(), lenA, root, rootA)
			}
		})
	}
}

// TestFollowerRefusesPlainLeader: a leader whose checkpoint image carries no
// Merkle root gives the follower nothing to check shipped records against.
// NewFollower fails typed, names the leader, and never starts tailing.
func TestFollowerRefusesPlainLeader(t *testing.T) {
	leader, rules := replicationLeader(t, t.TempDir())
	leader.Close() // only its rules are wanted
	masterRel := certainfix.NewRelation(rules.MasterSchema())
	if err := masterRel.Append(skuTuple(1)); err != nil {
		t.Fatal(err)
	}
	plain, err := certainfix.New(rules, masterRel) // memory-only, no WithAuth
	if err != nil {
		t.Fatal(err)
	}
	img := filepath.Join(t.TempDir(), "plain.arena")
	if err := plain.SaveMasterArena(img); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(img)
	if err != nil {
		t.Fatal(err)
	}
	var tails atomic.Int32
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/checkpoint", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Checkpoint-Epoch", "0")
		_, _ = w.Write(raw)
	})
	mux.HandleFunc("GET /v1/wal", func(w http.ResponseWriter, r *http.Request) {
		tails.Add(1)
		w.Header().Set("X-Leader-Epoch", "0")
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	follower, err := certainfix.NewFollower(rules, ts.URL, testKey)
	if err == nil {
		follower.Close()
		t.Fatal("a follower bootstrapped from an image without a Merkle root")
	}
	if !errors.Is(err, certainfix.ErrBadSnapshot) || !strings.Contains(err.Error(), ts.URL) {
		t.Fatalf("want ErrBadSnapshot naming %s, got %v", ts.URL, err)
	}
	time.Sleep(50 * time.Millisecond) // room for a wrongly started loop to tail
	if n := tails.Load(); n != 0 {
		t.Fatalf("a refused follower requested /v1/wal %d times", n)
	}
}

// TestServeWALRequiresDurability pins the 404 contract: a memory-only
// System has nothing to ship and says so with a machine code.
func TestServeWALRequiresDurability(t *testing.T) {
	r := certainfix.StringSchema("order", "sku", "price")
	rm := certainfix.StringSchema("catalog", "sku", "price")
	rules, err := certainfix.ParseRules(r, rm, `rule s: (sku ; sku) -> (price ; price)`)
	if err != nil {
		t.Fatal(err)
	}
	masterRel := certainfix.NewRelation(rm)
	if err := masterRel.Append(certainfix.StringTuple("sku-1", "9.99")); err != nil {
		t.Fatal(err)
	}
	sys, err := certainfix.New(rules, masterRel)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []http.HandlerFunc{sys.ServeWAL, sys.ServeCheckpoint} {
		rec := httptest.NewRecorder()
		h(rec, httptest.NewRequest(http.MethodGet, "/", nil))
		var body struct {
			Code string `json:"code"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatal(err)
		}
		if rec.Code != http.StatusNotFound || body.Code != "not_durable" {
			t.Fatalf("memory-only system: status %d code %q", rec.Code, body.Code)
		}
	}
}

// TestReplicationErrorsAreJSON holds the leader endpoints' error bodies to
// encoding/json whatever the message carries. ServeCheckpoint's 500 names
// the -wal-dir path, and a path may hold any byte but '/' and NUL: DEL, a
// control byte without a short JSON escape, invalid UTF-8 and a
// non-printable astral rune each once broke the body. ServeWAL's 400
// echoes a hostile ?after= back.
func TestReplicationErrorsAreJSON(t *testing.T) {
	type errorBody struct {
		Error string `json:"error"`
		Code  string `json:"code"`
	}
	decode := func(t *testing.T, rec *httptest.ResponseRecorder) errorBody {
		t.Helper()
		var body errorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("body %q is not JSON: %v", rec.Body.Bytes(), err)
		}
		return body
	}
	for label, name := range map[string]string{
		"DEL":          "del\x7f",
		"BEL":          "bel\a",
		"invalid-UTF8": "bad\xffutf8",
		"astral-tag":   "tag\U000e0001",
	} {
		t.Run(label, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), name)
			leader, _ := replicationLeader(t, dir)
			defer leader.Close()
			if err := leader.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if err := os.Remove(filepath.Join(dir, "checkpoint.arena")); err != nil {
				t.Fatal(err)
			}
			rec := httptest.NewRecorder()
			leader.ServeCheckpoint(rec, httptest.NewRequest(http.MethodGet, "/v1/checkpoint", nil))
			body := decode(t, rec)
			if rec.Code != http.StatusInternalServerError || body.Code != "internal" {
				t.Fatalf("status %d code %q", rec.Code, body.Code)
			}
			if want := strings.ToValidUTF8(name, "�"); !strings.Contains(body.Error, want) {
				t.Fatalf("error %q does not name the directory %q", body.Error, want)
			}

			rec = httptest.NewRecorder()
			leader.ServeWAL(rec, httptest.NewRequest(http.MethodGet, "/v1/wal?after="+url.QueryEscape(name), nil))
			if body := decode(t, rec); rec.Code != http.StatusBadRequest || body.Code != "bad_request" {
				t.Fatalf("hostile after: status %d code %q", rec.Code, body.Code)
			}
		})
	}
}
