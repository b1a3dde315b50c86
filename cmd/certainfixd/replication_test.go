package main

// Two-node epoch shipping with real binaries: a leader under an update
// storm, a follower started mid-storm (behind a truncation, so its
// bootstrap is the checkpoint catch-up path), SIGKILLed and restarted,
// and still ending epoch-identical under the leader's Merkle root — with
// session tokens minted on the leader finishing on the follower and writes
// to the follower refused.

import (
	"encoding/json"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"repro/pkg/certainfix"
)

// healthSnapshot is the /healthz subset the binary tests assert on.
type healthSnapshot struct {
	Epoch       uint64 `json:"epoch"`
	MasterSize  int    `json:"masterSize"`
	Replication *struct {
		State string `json:"state"`
		Lag   uint64 `json:"lag"`
		Root  string `json:"root"`
	} `json:"replication"`
	Durability *struct {
		CheckpointEpoch    uint64
		CheckpointInFlight bool
		WAL                struct{ Policy string }
		Recovery           struct {
			UsedCheckpoint bool
			BaseEpoch      uint64
		}
	} `json:"durability"`
}

func getHealth(t *testing.T, base string) healthSnapshot {
	t.Helper()
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h healthSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	return h
}

func TestFollowerReplicationSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills real binaries")
	}
	dir := t.TempDir()
	bin, rules, masterCSV := buildDaemon(t, dir)

	// The leader and its follower resume each other's session tokens: they
	// are started with one key file.
	keyFile := filepath.Join(dir, "token.key")
	if err := os.WriteFile(keyFile, []byte("replication-smoke-token-key\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	start := func(args ...string) (*exec.Cmd, string) {
		t.Helper()
		return startDaemon(t, bin, append([]string{"-rules", rules, "-token-key-file", keyFile}, args...)...)
	}
	kill := func(cmd *exec.Cmd) {
		_ = cmd.Process.Kill()
		_, _ = cmd.Process.Wait()
	}

	leader, leaderBase := start("-master", masterCSV, "-wal-dir", filepath.Join(dir, "wal"))
	defer kill(leader)

	// First part of the storm before the follower exists: once the leader
	// has checkpointed past epoch 256 the early epochs are truncated, so
	// the follower's bootstrap MUST come from the leader's checkpoint image.
	for i := 0; i < stormUpdates; i++ {
		addKV(t, leaderBase, i)
	}
	ckpt := waitCheckpoint(t, leaderBase, 256)

	follower, followerBase := start("-follow", leaderBase)
	waitConverged := func(what string) {
		t.Helper()
		deadline := time.Now().Add(20 * time.Second)
		for {
			lh, fh := getHealth(t, leaderBase), getHealth(t, followerBase)
			if fh.Replication == nil {
				t.Fatal("follower /healthz has no replication block")
			}
			if fh.Epoch == lh.Epoch && fh.MasterSize == lh.MasterSize && fh.Replication.Lag == 0 {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: follower at epoch %d/|Dm| %d, leader %d/%d (state %s)",
					what, fh.Epoch, fh.MasterSize, lh.Epoch, lh.MasterSize, fh.Replication.State)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	// The rest of the storm lands while the follower tails live.
	for i := stormUpdates; i < stormUpdates+30; i++ {
		addKV(t, leaderBase, i)
	}
	waitConverged("mid-storm attach")

	// SIGKILL the follower, keep the leader moving (past another
	// checkpoint), restart: the re-bootstrap converges again.
	kill(follower)
	for i := stormUpdates + 30; i < 2*stormUpdates+30; i++ {
		addKV(t, leaderBase, i)
	}
	waitCheckpoint(t, leaderBase, ckpt+1)
	follower2, followerBase := start("-follow", leaderBase)
	defer kill(follower2)
	waitConverged("restart after SIGKILL")

	// A fix session begun on the LEADER finishes on the FOLLOWER: the
	// token pins an epoch both lineages hold, and shipping made them
	// probe-for-probe identical.
	sess := begin(t, leaderBase, certainfix.StringTuple("add-41", "junk"))
	truth := certainfix.StringTuple("add-41", "val-41")
	for i := 0; !sess.Done; i++ {
		if i > 5 {
			t.Fatal("cross-node fix did not converge")
		}
		sess = answer(t, followerBase, sess, truth)
	}
	if !sess.Completed || sess.Tuple[1].Str() != "val-41" {
		t.Fatalf("cross-node fix: %+v", sess)
	}

	// Writes to the replica are refused with the machine code.
	var errReply struct {
		Code string `json:"code"`
	}
	if code := post(t, followerBase+"/v1/update-master", map[string]any{
		"adds": [][]string{{"rogue", "x"}},
	}, &errReply); code != http.StatusForbidden || errReply.Code != "read_only_replica" {
		t.Fatalf("follower write: HTTP %d code %q", code, errReply.Code)
	}
	// And the refusal changed nothing: still converged with the leader.
	waitConverged("after refused write")

	// A durable leader is an authenticated one, -auth or not: the follower
	// checked every shipped epoch against its root and serves the same root
	// the leader publishes at that epoch.
	var root struct {
		Epoch uint64 `json:"epoch"`
		Root  string `json:"root"`
	}
	resp, err := http.Get(leaderBase + "/v1/root")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&root)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	fh := getHealth(t, followerBase)
	if root.Root == "" || fh.Epoch != root.Epoch || fh.Replication.Root != root.Root {
		t.Fatalf("follower at epoch %d under root %q, leader at %d under %q",
			fh.Epoch, fh.Replication.Root, root.Epoch, root.Root)
	}
}
