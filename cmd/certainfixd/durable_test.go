package main

// Durability at the daemon level: a graceful SIGTERM-style shutdown
// restarts with its suspended sessions intact, a SIGKILL mid-update-storm
// loses nothing that was acknowledged, and -wal-dir is the whole
// durability configuration. The binary tests run the real daemon — build,
// kill, restart — as the crash-recovery smoke CI gates on.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/paperex"
	"repro/pkg/certainfix"
)

// TestGracefulShutdownDurable mirrors main's shutdown ordering —
// srv.Shutdown, then sys.Close — with a fix session in flight across the
// restart: recovery sees every acknowledged epoch and the session resumes.
func TestGracefulShutdownDurable(t *testing.T) {
	dir := t.TempDir()
	truth := certainfix.StringTuple(
		"Robert", "Brady", "131", "6884563", "1",
		"51 Elm Row", "Edi", "EH7 4AH", "CD")
	// A token outlives the process that minted it only under a configured
	// key: the restart below is given the same one.
	key := certainfix.WithTokenKey([]byte("graceful-shutdown-test-key"))
	sys, err := certainfix.New(paperex.Sigma0(), paperex.MasterRelation(), certainfix.WithWAL(dir), key)
	if err != nil {
		t.Fatal(err)
	}
	base, stop := startServer(t, sys)

	sess := answer(t, base, begin(t, base, paperex.InputT2()), truth) // in flight: one round done, token held

	var acked uint64
	for i := 0; i < 5; i++ {
		var upd struct {
			Epoch uint64 `json:"epoch"`
		}
		if code := post(t, base+"/v1/update-master", map[string]any{
			"adds": []certainfix.Tuple{paperex.MasterRelation().Tuple(i % 2).Clone()},
		}, &upd); code != http.StatusOK {
			t.Fatalf("update-master: HTTP %d", code)
		}
		acked = upd.Epoch
	}

	// main's ordering: drain the server, then close the WAL.
	stop()
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	sys2, err := certainfix.New(paperex.Sigma0(), nil, certainfix.WithWAL(dir), key)
	if err != nil {
		t.Fatalf("recover after graceful shutdown: %v", err)
	}
	defer sys2.Close()
	if got := sys2.MasterEpoch(); got != acked {
		t.Fatalf("recovered epoch %d, want %d", got, acked)
	}
	// The suspended session resumes against the recovered lineage.
	base2, stop2 := startServer(t, sys2)
	defer stop2()
	next := sess
	for i := 0; !next.Done; i++ {
		if i > 10 {
			t.Fatal("resumed session did not converge")
		}
		next = answer(t, base2, next, truth)
	}
	if !next.Completed || !next.Tuple.Equal(truth) {
		t.Fatalf("resumed session incomplete: %+v", next)
	}
}

// buildDaemon builds the certainfixd binary into dir and writes the
// two-column fixture the binary tests share beside it: one rule K → V and
// a master holding (k1, v1) and (k2, v2).
func buildDaemon(t *testing.T, dir string) (bin, rules, masterCSV string) {
	t.Helper()
	bin = filepath.Join(dir, "certainfixd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	rules = filepath.Join(dir, "kv.rules")
	if err := os.WriteFile(rules, []byte(
		"schema R: K, V\nmaster Rm: K, V\nrule kv: (K ; K) -> (V ; V) when K != nil\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	masterCSV = filepath.Join(dir, "master.csv")
	if err := os.WriteFile(masterCSV, []byte("K,V\nk1,v1\nk2,v2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return bin, rules, masterCSV
}

// startDaemon runs bin with args on a free loopback port and returns once
// /healthz answers.
func startDaemon(t *testing.T, bin string, args ...string) (*exec.Cmd, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	base := "http://" + addr
	for i := 0; ; i++ {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			return cmd, base
		}
		if i > 100 {
			t.Fatalf("daemon did not come up: %v", err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// addKV posts one update adding the tuple (add-i, val-i) and returns the
// acknowledged epoch.
func addKV(t *testing.T, base string, i int) uint64 {
	t.Helper()
	var upd struct {
		Epoch uint64 `json:"epoch"`
	}
	if code := post(t, base+"/v1/update-master", map[string]any{
		"adds": [][]string{{fmt.Sprintf("add-%d", i), fmt.Sprintf("val-%d", i)}},
	}, &upd); code != http.StatusOK {
		t.Fatalf("update %d: HTTP %d", i, code)
	}
	return upd.Epoch
}

// waitCheckpoint waits until the durable daemon at base reports a
// checkpoint at epoch ≥ atLeast — a background checkpoint lands a little
// after the update that triggers it — and returns that epoch.
func waitCheckpoint(t *testing.T, base string, atLeast uint64) uint64 {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		h := getHealth(t, base)
		if h.Durability == nil {
			t.Fatal("durable daemon reports no durability block")
		}
		if h.Durability.CheckpointEpoch >= atLeast {
			return h.Durability.CheckpointEpoch
		}
		if time.Now().After(deadline) {
			t.Fatalf("checkpoint epoch %d at head %d, want ≥ %d", h.Durability.CheckpointEpoch, h.Epoch, atLeast)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// stormUpdates is how many updates a binary test posts to push a
// -wal-dir daemon past a checkpoint, which rolls every 256 deltas.
const stormUpdates = 300

// TestCrashRecoverySmoke builds the real certainfixd binary, pushes it
// past its first checkpoint, SIGKILLs it in the middle of an update storm,
// restarts it on the same -wal-dir, and proves (a) no acknowledged epoch
// was lost, (b) the recovered master is epoch-consistent — each update
// added exactly one tuple, so |Dm| must equal the seed size plus the
// recovered epoch — (c) recovery started from that non-initial checkpoint,
// and (d) the recovered data serves fixes.
func TestCrashRecoverySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills a real binary")
	}
	dir := t.TempDir()
	bin, rules, masterCSV := buildDaemon(t, dir)
	args := []string{"-rules", rules, "-master", masterCSV, "-wal-dir", filepath.Join(dir, "wal")}

	cmd, base := startDaemon(t, bin, args...)
	// The storm: every acknowledged update added one tuple ("add-i",
	// "val-i"). Kill the daemon hard partway through — some request is
	// likely mid-flight, which is the point.
	var acked uint64
	for i := 0; i < stormUpdates; i++ {
		acked = addKV(t, base, i)
	}
	ckpt := waitCheckpoint(t, base, 256)
	// Keep a second storm of unacknowledged updates in flight — fire and
	// forget — so the kill lands with requests mid-write. Whether any of
	// them landed is what the epoch/content invariant below absorbs.
	noise := make(chan struct{})
	go func() {
		defer close(noise)
		for j := 0; ; j++ {
			body, _ := json.Marshal(map[string]any{
				"adds": [][]string{{fmt.Sprintf("noise-%d", j), "x"}},
			})
			resp, err := http.Post(base+"/v1/update-master", "application/json", bytes.NewReader(body))
			if err != nil {
				return // the daemon died under us — mission accomplished
			}
			resp.Body.Close()
		}
	}()
	time.Sleep(30 * time.Millisecond)
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = cmd.Wait()
	<-noise

	cmd2, base2 := startDaemon(t, bin, args...)
	defer func() {
		_ = cmd2.Process.Kill()
		_ = cmd2.Wait()
	}()
	health := getHealth(t, base2)
	if health.Durability == nil {
		t.Fatal("restarted daemon reports no durability block")
	}
	if health.Epoch < acked {
		t.Fatalf("acknowledged epoch lost: recovered %d < acked %d", health.Epoch, acked)
	}
	if want := 2 + int(health.Epoch); health.MasterSize != want {
		t.Fatalf("epoch/content mismatch: epoch %d with |Dm| %d (want %d)",
			health.Epoch, health.MasterSize, want)
	}
	if rec := health.Durability.Recovery; !rec.UsedCheckpoint || rec.BaseEpoch < ckpt {
		t.Fatalf("recovery started from %+v, want the checkpoint at epoch ≥ %d", rec, ckpt)
	}
	// A tuple from the log tail past that checkpoint serves a fix: assert
	// K for ("add-280", junk), the rule must restore "val-280".
	sess := begin(t, base2, certainfix.StringTuple("add-280", "junk"))
	truth := certainfix.StringTuple("add-280", "val-280")
	for i := 0; !sess.Done; i++ {
		if i > 5 {
			t.Fatal("fix on recovered daemon did not converge")
		}
		sess = answer(t, base2, sess, truth)
	}
	if !sess.Completed || sess.Tuple[1].Str() != "val-280" {
		t.Fatalf("recovered fix: %+v", sess)
	}
}

// TestDurabilityFlagsIgnored: -fsync and -checkpoint-every are accepted
// for old command lines and change nothing — a -wal-dir daemon fsyncs
// every update and checkpoints every 256 deltas whatever they say.
func TestDurabilityFlagsIgnored(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a real binary")
	}
	dir := t.TempDir()
	bin, rules, masterCSV := buildDaemon(t, dir)
	cmd, base := startDaemon(t, bin, "-rules", rules, "-master", masterCSV,
		"-wal-dir", filepath.Join(dir, "wal"), "-fsync", "off", "-checkpoint-every", "3")
	defer func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	}()
	for i := 0; i < 5; i++ {
		addKV(t, base, i)
	}
	h := getHealth(t, base)
	if h.Durability == nil {
		t.Fatal("durable daemon reports no durability block")
	}
	if d := h.Durability; d.WAL.Policy != "always" || d.CheckpointEpoch != 0 || d.CheckpointInFlight {
		t.Fatalf("after 5 updates under -fsync off -checkpoint-every 3: policy %q, checkpoint epoch %d (in flight %v); want \"always\", 0, false",
			d.WAL.Policy, d.CheckpointEpoch, d.CheckpointInFlight)
	}
}
