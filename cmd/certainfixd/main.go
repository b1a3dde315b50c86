// Command certainfixd serves the certain-fix framework over HTTP — the
// data-monitoring service of §5 turned into a stateless JSON API. Fix
// sessions are resumable and serialized into client-held tokens, so the
// server keeps no per-session state: every round of every fix can land
// on any node of the same master lineage — a replica booted from the
// same master file, a -follow replica, the server restarted on its
// -wal-dir or -master-snapshot — over the same rules and started with the
// same -token-key-file.
//
// Endpoints (all JSON):
//
//	POST /v1/begin          {"tuple": [...]}               start a session
//	POST /v1/suggest        {"token": "..."}               peek at the pending suggestion
//	POST /v1/answer         {"token": "...", "attrs": [..], "values": [..]}
//	                        run one round; empty attrs aborts the session
//	POST /v1/result         {"token": "..."}               final (or interim) result
//	POST /v1/update-master  {"adds": [[...]], "deletes": [..]}
//	                        publish a master-data delta (new epoch)
//	GET  /v1/wal?after=E    stream acknowledged WAL records past epoch E
//	                        (raw frames; 409 "wal_truncated" when E is
//	                        behind the checkpoint; needs -wal-dir)
//	GET  /v1/checkpoint     the newest arena checkpoint image, epoch in
//	                        X-Checkpoint-Epoch (needs -wal-dir)
//	GET  /v1/schema         {"relation": "R", "attrs": [names]}: what the
//	                        positions in requests and replies name
//	GET  /v1/root           the published master commitment: {"epoch",
//	                        "root", "authenticated"} (see -auth below)
//	GET  /healthz           liveness, "regions" (certain regions verified
//	                        at boot; 0 = sessions open with the trivial
//	                        region) and the master's memory accounting
//	                        ("master": heap vs arena residency, see
//	                        certainfix.MasterMemStats)
//
// A POST body is one JSON value, decoded as encoding/json would decode it
// (codec.go): anything else is 400 {"code": "bad_request"}, and a body
// over 1 MiB is 413 {"code": "body_too_large"}.
//
// begin/suggest/answer reply with {"token", "suggested", "fixedAttrs",
// "fixedValues", "rounds", "done", "completed", "epoch", "root"}, leaving
// out what the session implies: "suggested" once it is done, "done" and
// "completed" when false, "rounds" and "epoch" when 0, "root" on an
// unauthenticated master, and the cells when none were fixed. The client
// must send the fresh token — unpadded base64 — verbatim on its next
// call. A session is done
// once every attribute is validated ("completed"), when the client
// aborts, or after arity + 1 rounds. A reply carries what
// the round changed, not the tuple: fixedAttrs/fixedValues are the cells
// the rules fixed in the round that minted the token (absent when none),
// so the begin tuple, plus the client's own answers, plus every reply's
// fixed cells is the session's tuple — /v1/suggest repeats the last
// round's, and writing them twice is harmless. Attributes travel as
// positions; GET /v1/schema names them once. A
// token pins the master epoch its session started on; after enough
// /v1/update-master publishes that epoch is evicted from the snapshot
// ring (-history) and /v1/answer replies 409 {"code": "epoch_evicted"}
// until the client retries with "rebase": true. A token whose epoch this
// node has not reached yet (minted on the leader, sent to a follower that
// is still catching up) is 503 {"code": "epoch_ahead"} with Retry-After:
// the same request succeeds once the epoch has been shipped, and "rebase"
// does not apply — it never moves a session onto an older master.
//
// The token is one opaque base64 string: a compact binary image of the
// session's inputs ending in an HMAC-SHA256 tag, so the set of attributes
// "the users validated" — what certainty rests on — cannot be forged by
// the client holding it. A begin cell no user asserted whose value the
// master already holds travels as that value's symbol id, which every
// node of the lineage resolves to the same value; what users asserted
// always travels as itself. A token that was altered, truncated or sealed
// under another key is a 400 {"code": "invalid_input"}, and so is one
// whose ids name other values on this server than its check says (a
// server booted from a master file whose rows came in another order, or
// were edited). To see what a session
// holds, ask /v1/result: it returns the tuple, the per-round history —
// each round's "User"/"Auto" as the members it added (User only when the
// users asserted other than "Suggested"; the validated sets only when
// they are not the union of the rounds') and its tuple as the cells a
// later round overwrote ("Attrs"/"Values") — and the provenance: a
// "Provenance" list of [attr, "rule", m] triples whose m indexes a
// "Masters" table holding each witnessed master row (and its proof on an
// authenticated master) once, as the cells where it differs from the
// fixed tuple when it is close to it:
//
//	{"result": {"Tuple": ["A1", "9.50", "widget"], "Rounds": 1, "Completed": true,
//	  "PerRound": [{"Suggested": [0], "Auto": [1, 2]}],
//	  "Provenance": [[2, "desc", 0], [1, "price", 0]], "Masters": [{"id": 0}]}}
//
// Masters[0] has no "tuple" and no "attrs"/"values": the master row is
// the fixed tuple itself. "Epoch" is left out at 0 and "Root" on an
// unauthenticated master. A proof is one base64 string whose binary layout
// the authtree.Proof comment spells out, so a non-Go client can fold it
// to the root itself; internal/monitor/result_json.go spells out the rest.
//
// -token-key-file names the file holding the HMAC key (at least 16
// bytes; surrounding whitespace is ignored). Every replica of one
// service — and a leader and its followers — must be given the same
// key, or they reject each other's tokens. Without the flag the daemon
// draws a random key at start: a single node serves exactly as before,
// but its tokens die with the process.
//
// Usage:
//
//	certainfixd -rules hosp.rules -master hosp_master.csv -addr :8080
//
// The rules file uses the schema-header format of cmd/certainfix
// (schema R: ... / master Rm: ... / rule ... lines).
//
// With -master-snapshot the daemon cold-starts from a master arena
// image: when the file exists it is loaded (mmap + validate) instead of
// rebuilding indexes from the CSV; when it does not exist yet, the master
// is built from -master and the image is saved for the next start.
//
// With -wal-dir the master lineage is durable: every /v1/update-master is
// written to a segmented write-ahead log and fsynced before it is
// acknowledged, so an acknowledged update survives a crash; arena
// checkpoints roll every 256 deltas, and a restart recovers checkpoint +
// log tail instead of rewinding to the CSV. -wal-dir is the whole
// durability configuration: -fsync and -checkpoint-every are accepted for
// old command lines and ignored. On the first start the directory is
// seeded from -master (or -master-snapshot), whose checkpoint is written in
// the background: fixes are served at once, and the first update waits for
// it. On later starts the directory alone is authoritative and -master may
// be omitted. /healthz gains a "durability" block, and SIGINT/SIGTERM close
// the log before exit.
//
// The daemon maintains a Merkle commitment over the master data under
// -wal-dir or -follow, and under -auth otherwise: GET /v1/root publishes
// the (epoch, root) pair, session replies carry the pinned root, and
// /v1/result responses include per-attribute provenance — the rule that
// fired, the master tuple it consumed, and an inclusion proof. A client
// holding only the rules and the root checks a fix offline with
// certainfix.VerifyFix; a replica audits every shipped epoch against the
// root its record carries and refuses to publish a diverged lineage.
//
// With -follow the daemon is a read-only replica of another certainfixd:
// it bootstraps from the leader's GET /v1/checkpoint, tails GET /v1/wal,
// and serves every read endpoint against the replicated lineage —
// session tokens minted on the leader (or any sibling replica) resume
// here, because epoch shipping makes the lineages identical and the two
// share -token-key-file.
// /v1/update-master answers 403 {"code": "read_only_replica"}; /healthz
// gains a "replication" block with the leader, lag and shipping state.
// -follow is mutually exclusive with -master, -master-snapshot and
// -wal-dir (a replica owns no lineage of its own).
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/cmd/internal/cli"
	"repro/pkg/certainfix"
)

func main() {
	began := time.Now()
	var (
		rulesPath  = flag.String("rules", "", "rules file (schema headers + rule DSL)")
		masterPath = flag.String("master", "", "master relation CSV")
		addr       = flag.String("addr", ":8080", "listen address")
		history    = flag.Int("history", 0, "master snapshot ring size for session resume (0 = default)")
		_          = flag.Int("shards", 0, "deprecated and ignored: the master takes the shard count its size calls for")
		snapshot   = flag.String("master-snapshot", "", "master arena: load it when the file exists, else build from -master and save it")
		walDir     = flag.String("wal-dir", "", "durable lineage directory (write-ahead log + checkpoints); recovered on start")
		_          = flag.String("fsync", "", "deprecated and ignored: -wal-dir fsyncs every update before acknowledging it")
		_          = flag.Int("checkpoint-every", 0, "deprecated and ignored: -wal-dir checkpoints every 256 deltas")
		follow     = flag.String("follow", "", "run as a read-only replica of the leader certainfixd at this base URL")
		tokenKey   = flag.String("token-key-file", "", "file holding the session-token HMAC key, shared by all replicas (default: a random per-process key)")
		auth       = flag.Bool("auth", false, "maintain a Merkle commitment over an in-memory master: /v1/root publishes it, fix results carry inclusion proofs (always on with -wal-dir or -follow)")
	)
	flag.Parse()
	if *rulesPath == "" {
		fatalf("-rules is required")
	}
	if *follow != "" && (*masterPath != "" || *snapshot != "" || *walDir != "") {
		fatalf("-follow is mutually exclusive with -master, -master-snapshot and -wal-dir: a replica's lineage comes from its leader")
	}
	if *follow == "" && *masterPath == "" && *snapshot == "" && *walDir == "" {
		fatalf("-master is required (or -master-snapshot naming an existing image, -wal-dir holding a recovered lineage, or -follow naming a leader)")
	}
	sys, err := buildSystem(serverConfig{
		rulesPath:    *rulesPath,
		masterPath:   *masterPath,
		snapshot:     *snapshot,
		history:      *history,
		walDir:       *walDir,
		follow:       *follow,
		auth:         *auth,
		tokenKeyFile: *tokenKey,
	})
	if err != nil {
		// *certainfix.MasterBuildError renders the failing tuple's id and
		// key itself; the sentinel check names the subsystem.
		if errors.Is(err, certainfix.ErrMasterBuild) {
			fatalf("master data rejected: %v", err)
		}
		fatalf("%v", err)
	}

	srv := newHTTPServer(*addr, newHandler(sys))
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "certainfixd: serving on %s (|Dm| = %d, epoch %d)\n",
		*addr, sys.MasterLen(), sys.MasterEpoch())
	boot := sys.BootTimings()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	fmt.Fprintf(os.Stderr, "certainfixd: boot %.3fs (master read %.3fs, index/load %.3fs, region derivation %.3fs; heap in use %.1f MB)\n",
		time.Since(began).Seconds(), boot.MasterRead.Seconds(), (boot.Master - boot.MasterRead).Seconds(),
		boot.Regions.Seconds(), float64(mem.HeapInuse)/(1<<20))
	if st, ok := sys.Durability(); ok {
		// What "master build/load" was made of under -wal-dir.
		rec := st.Recovery
		fmt.Fprintf(os.Stderr,
			"certainfixd: durable lineage %s (checkpoint epoch %d, replayed %d, torn bytes %d; base %.3fs, authenticate %.3fs, replay %.3fs)\n",
			*walDir, rec.BaseEpoch, rec.Replayed, rec.TornBytes,
			rec.BaseMs/1000, rec.AuthenticateMs/1000, rec.ReplayMs/1000)
	}
	if st, ok := sys.Replication(); ok {
		fmt.Fprintf(os.Stderr,
			"certainfixd: read-only replica following %s (bootstrapped at epoch %d)\n",
			st.Leader, st.Epoch)
	}
	// A build's last collection may have fallen while its temporaries — the
	// CSV ring, the index build's scratch — were live, and the heap may grow
	// to twice what that collection marked before the next one. One more,
	// beside the first requests, sets that goal from the master alone. A
	// master loaded from an image or a recovered -wal-dir built no such
	// scratch, and skips it.
	if boot.MasterRead > 0 {
		runtime.GC()
	}

	select {
	case err := <-errCh:
		fatalf("%v", err)
	case <-ctx.Done():
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// Stateless by design: draining loses nothing — every in-flight
	// session's state lives in a token the client already holds.
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatalf("shutdown: %v", err)
	}
	// Only after the last handler has returned: close the WAL. Every
	// acknowledged update is already on disk.
	if err := sys.Close(); err != nil {
		fatalf("close lineage: %v", err)
	}
	fmt.Fprintln(os.Stderr, "certainfixd: drained, bye")
}

// newHTTPServer is the daemon's http.Server. Every read is bounded: the
// headers within ReadHeaderTimeout, the whole request (a body is at most
// 1 MiB) within ReadTimeout, and a keep-alive connection idles at most
// IdleTimeout between requests — a client that stalls mid-body holds a
// connection and a goroutine for seconds, not forever. There is no
// server-wide WriteTimeout: GET /v1/wal is a stream that lives as long as
// its follower, and GET /v1/checkpoint ships a whole master image.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}

// serverConfig carries the flag values into buildSystem.
type serverConfig struct {
	rulesPath, masterPath, snapshot string
	history                         int
	walDir                          string
	follow                          string
	auth                            bool
	tokenKeyFile                    string
}

// buildSystem loads the rules file and constructs the System through
// cli.OpenSystem (arena image when it exists, else the master CSV). With
// walDir set the lineage is durable: the directory's checkpoint + WAL win
// over both sources once they exist, and a recovered start needs neither
// CSV nor arena.
func buildSystem(cfg serverConfig) (*certainfix.System, error) {
	_, _, rules, err := cli.LoadRules(cfg.rulesPath)
	if err != nil {
		return nil, err
	}
	var opts []certainfix.Option
	if cfg.history > 0 {
		opts = append(opts, certainfix.WithMasterHistory(cfg.history))
	}
	if cfg.auth {
		opts = append(opts, certainfix.WithAuth())
	}
	if cfg.tokenKeyFile != "" {
		key, err := readTokenKey(cfg.tokenKeyFile)
		if err != nil {
			return nil, err
		}
		opts = append(opts, certainfix.WithTokenKey(key))
	}
	if cfg.follow != "" {
		// Replica: the leader's checkpoint and WAL are the only sources.
		return certainfix.NewFollower(rules, cfg.follow, opts...)
	}
	if cfg.walDir != "" {
		opts = append(opts, certainfix.WithWAL(cfg.walDir))
		if _, statErr := os.Stat(cfg.snapshot); cfg.masterPath == "" && statErr != nil {
			// Recovery-only boot: the WAL directory must hold a
			// checkpoint; certainfix.New reports it cleanly when not.
			return certainfix.New(rules, nil, opts...)
		}
	}
	return cli.OpenSystem(rules, cfg.masterPath, cfg.snapshot, opts...)
}

// readTokenKey loads the session-token key. A short key is refused
// rather than stretched: the file is meant to hold random bytes.
func readTokenKey(path string) ([]byte, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("token key: %w", err)
	}
	key := bytes.TrimSpace(raw)
	if len(key) < 16 {
		return nil, fmt.Errorf("token key %s holds %d bytes, want at least 16", path, len(key))
	}
	return key, nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "certainfixd: "+format+"\n", args...)
	os.Exit(1)
}
