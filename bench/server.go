package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// repoRoot walks up from the working directory to the checkout that holds
// the server's source.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "certainfixd", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no cmd/certainfixd above the working directory: run cfbench inside the repository")
		}
		dir = parent
	}
}

// buildServer compiles the real certainfixd from the checkout's source.
func buildServer(root, buildDir string) (string, error) {
	bin := filepath.Join(buildDir, "certainfixd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/certainfixd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/certainfixd: %v\n%s", err, out)
	}
	return bin, nil
}

// serverProcs is the GOMAXPROCS the server runs at: pinned and recorded,
// never more than the host has.
func serverProcs() int { return min(runtime.NumCPU(), 4) }

// server is one running certainfixd.
type server struct {
	cmd    *exec.Cmd
	base   string
	stderr *bytes.Buffer
	waited chan struct{} // closed once the process has been reaped
}

// health is the part of /healthz the harness checks.
type health struct {
	Epoch      uint64 `json:"epoch"`
	MasterSize int    `json:"masterSize"`
}

// boot starts the server on a free loopback port and returns once
// /healthz answers 200, with the time from spawn to that answer.
func boot(bin string, args []string) (*server, time.Duration, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	addr := ln.Addr().String()
	ln.Close()

	s := &server{base: "http://" + addr, stderr: new(bytes.Buffer), waited: make(chan struct{})}
	s.cmd = exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	s.cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(serverProcs()))
	s.cmd.Stderr = s.stderr
	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, 0, err
	}
	go func() {
		_ = s.cmd.Wait() // the exit status of a server we kill says nothing
		close(s.waited)
	}()
	for {
		if resp, err := http.Get(s.base + "/healthz"); err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(start), nil
			}
		}
		select {
		case <-s.waited:
			return nil, 0, fmt.Errorf("certainfixd exited during boot:\n%s", s.stderr)
		case <-time.After(time.Millisecond):
		}
		if time.Since(start) > 2*time.Minute {
			s.kill()
			return nil, 0, fmt.Errorf("certainfixd not healthy after %v:\n%s", time.Since(start).Round(time.Second), s.stderr)
		}
	}
}

// kill ends the server the way a crash would and waits until it is gone.
func (s *server) kill() {
	_ = s.cmd.Process.Kill() // already exited is fine
	<-s.waited
}

// stop asks for a graceful shutdown and falls back to kill.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.waited:
	case <-time.After(15 * time.Second):
		s.kill()
	}
}

func (s *server) health() (health, error) {
	var h health
	resp, err := http.Get(s.base + "/healthz")
	if err != nil {
		return h, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return h, fmt.Errorf("/healthz: HTTP %d", resp.StatusCode)
	}
	return h, json.NewDecoder(resp.Body).Decode(&h)
}

// peakRSSMB reads the server's high-water resident set from /proc.
func (s *server) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", s.cmd.Process.Pid)
}
