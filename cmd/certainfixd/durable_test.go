package main

// Durability at the daemon level: a graceful SIGTERM-style shutdown
// flushes the WAL even with fsync off, and a SIGKILL mid-update-storm
// loses nothing that was acknowledged (fsync always). The second test
// runs the real binary — build, kill, restart — as the crash-recovery
// smoke CI gates on.

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
// srv.Shutdown, then sys.Close — over a lineage that never fsyncs on its
// own, with a fix session in flight across the restart. Close is what
// puts the acknowledged epochs on disk; recovery must see all of them.
func TestGracefulShutdownDurable(t *testing.T) {
	dir := t.TempDir()
	truth := certainfix.StringTuple(
		"Robert", "Brady", "131", "6884563", "1",
		"51 Elm Row", "Edi", "EH7 4AH", "CD")
	// A token outlives the process that minted it only under a configured
	// key: the restart below is given the same one.
	key := certainfix.WithTokenKey([]byte("graceful-shutdown-test-key"))
	sys, err := certainfix.New(paperex.Sigma0(), paperex.MasterRelation(),
		certainfix.WithWAL(dir), certainfix.WithFsync(certainfix.FsyncOff), key)
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

	// main's ordering: drain the server, then flush and close the WAL.
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
		t.Fatalf("recovered epoch %d, want %d (graceful shutdown must flush)", got, acked)
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

// TestCrashRecoverySmoke builds the real certainfixd binary, SIGKILLs it
// in the middle of an update storm, restarts it on the same -wal-dir, and
// proves (a) no acknowledged epoch was lost, (b) the recovered master is
// epoch-consistent — each update added exactly one tuple, so |Dm| must
// equal the seed size plus the recovered epoch — and (c) the recovered
// data serves fixes.
func TestCrashRecoverySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills a real binary")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "certainfixd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	rules := filepath.Join(dir, "kv.rules")
	if err := os.WriteFile(rules, []byte(
		"schema R: K, V\nmaster Rm: K, V\nrule kv: (K ; K) -> (V ; V) when K != nil\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	masterCSV := filepath.Join(dir, "master.csv")
	if err := os.WriteFile(masterCSV, []byte("K,V\nk1,v1\nk2,v2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	walDir := filepath.Join(dir, "wal")

	start := func() (*exec.Cmd, string) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := ln.Addr().String()
		ln.Close()
		cmd := exec.Command(bin,
			"-rules", rules, "-master", masterCSV, "-addr", addr,
			"-wal-dir", walDir, "-fsync", "always", "-checkpoint-every", "8")
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		base := "http://" + addr
		for i := 0; ; i++ {
			resp, err := http.Get(base + "/healthz")
			if err == nil {
				resp.Body.Close()
				break
			}
			if i > 100 {
				t.Fatalf("daemon did not come up: %v", err)
			}
			time.Sleep(50 * time.Millisecond)
		}
		return cmd, base
	}

	cmd, base := start()
	// The storm: every acknowledged update added one tuple ("add-i",
	// "val-i"). Kill the daemon hard partway through — some request is
	// likely mid-flight, which is the point.
	var acked uint64
	for i := 0; i < 30; i++ {
		var upd struct {
			Epoch uint64 `json:"epoch"`
		}
		code := post(t, base+"/v1/update-master", map[string]any{
			"adds": [][]string{{fmt.Sprintf("add-%d", i), fmt.Sprintf("val-%d", i)}},
		}, &upd)
		if code != http.StatusOK {
			t.Fatalf("update %d: HTTP %d", i, code)
		}
		acked = upd.Epoch
	}
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

	cmd2, base2 := start()
	defer func() {
		_ = cmd2.Process.Kill()
		_ = cmd2.Wait()
	}()
	resp, err := http.Get(base2 + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Epoch      uint64 `json:"epoch"`
		MasterSize int    `json:"masterSize"`
		Durability *struct {
			Recovery struct {
				UsedCheckpoint bool `json:"UsedCheckpoint"`
			}
		} `json:"durability"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
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
	// A replayed tuple serves a fix: assert K for ("add-7", junk), the
	// rule must restore "val-7" from the recovered master.
	sess := begin(t, base2, certainfix.StringTuple("add-7", "junk"))
	truth := certainfix.StringTuple("add-7", "val-7")
	for i := 0; !sess.Done; i++ {
		if i > 5 {
			t.Fatal("fix on recovered daemon did not converge")
		}
		sess = answer(t, base2, sess, truth)
	}
	if !sess.Completed || sess.Tuple[1].Str() != "val-7" {
		t.Fatalf("recovered fix: %+v", sess)
	}
}
