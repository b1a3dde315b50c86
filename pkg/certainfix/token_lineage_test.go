package certainfix_test

// Tokens name master values by symbol id, so a token must mean the same
// thing on every System that holds its lineage: one loaded from an arena
// image, a follower, the leader recovered from its checkpoint and WAL, and
// — with RebaseToHead — a head whose symbol table has grown since. On a
// System of another lineage it must fail rather than mean something else.

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/datagen"
	"repro/pkg/certainfix"
)

// referenceCells counts the begin cells a token writes as symbol ids: the
// members of the set that follows the arity (token format 6, see
// internal/monitor/token.go).
func referenceCells(tb testing.TB, token []byte) int {
	tb.Helper()
	if len(token) == 0 || token[0] != 6 {
		tb.Fatalf("token is not format 6: % x", token[:min(len(token), 4)])
	}
	b := token[1:]
	next := func() uint64 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			tb.Fatal("malformed token header")
		}
		b = b[n:]
		return v
	}
	next()    // epoch
	b = b[1:] // flags
	next()    // arity
	cells := 0
	for w := next(); w > 0; w-- {
		cells += bits.OnesCount64(next())
	}
	return cells
}

// lineageRun is what uninterrupted runs of every input mint on one System:
// the token at each round boundary, and the final Result.
type lineageRun struct {
	tokens  [][][]byte // [input][boundary]
	results []certainfix.Result
}

func mintRuns(tb testing.TB, sys *certainfix.System, ds *datagen.Dataset) lineageRun {
	tb.Helper()
	var run lineageRun
	for i, input := range ds.Inputs {
		sess, err := sys.Begin(context.Background(), input)
		if err != nil {
			tb.Fatal(err)
		}
		var tokens [][]byte
		for {
			tok, err := sess.MarshalBinary()
			if err != nil {
				tb.Fatal(err)
			}
			tokens = append(tokens, tok)
			if sess.Done() {
				break
			}
			provideRound(tb, sess, ds.Truths[i])
		}
		run.tokens = append(run.tokens, tokens)
		run.results = append(run.results, sess.Result())
	}
	return run
}

// resumeAll resumes every token of from on sys and holds each resumed
// session to want: it re-marshals to want's token at the same boundary and
// finishes on want's Result.
func resumeAll(t *testing.T, form string, sys *certainfix.System, ds *datagen.Dataset, from, want lineageRun, opts ...certainfix.ResumeOption) {
	t.Helper()
	for i := range from.tokens {
		for k, tok := range from.tokens[i] {
			sess, err := sys.Resume(context.Background(), tok, opts...)
			if err != nil {
				t.Fatalf("%s: input %d boundary %d: %v", form, i, k, err)
			}
			again, err := sess.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again, want.tokens[i][k]) {
				t.Fatalf("%s: input %d boundary %d re-marshals to\n %x\nwant\n %x", form, i, k, again, want.tokens[i][k])
			}
			if got := driveToEnd(t, sess, ds.Truths[i]); !reflect.DeepEqual(got, want.results[i]) {
				t.Fatalf("%s: input %d resumed at boundary %d differs from the uninterrupted run:\n got  %+v\n want %+v",
					form, i, k, got, want.results[i])
			}
		}
	}
}

// TestTokensSurviveLineageForms: HOSP tokens minted on a heap-built System
// at epoch 0 resume, replay to the uninterrupted run and re-marshal to
// their own bytes on every other form of the lineage — NewFromArena over
// the same Dm and key, a follower of a durable leader over it, and that
// leader after close and recovery from checkpoint plus WAL tail. After
// deltas that intern new values and then delete the rows that carried
// them, a follower and the recovered leader keeping one snapshot have
// evicted epoch 0: with RebaseToHead each token equals, round by round,
// the one an uninterrupted run at the head mints.
func TestTokensSurviveLineageForms(t *testing.T) {
	ds, err := datagen.Hosp(datagen.Config{Seed: 1, MasterSize: 1000, Tuples: 30, DupRate: 0.3, NoiseRate: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	rel := ds.Master.Relation()
	heap, err := certainfix.New(ds.Sigma, rel, testKey, certainfix.WithAuth())
	if err != nil {
		t.Fatal(err)
	}
	minted := mintRuns(t, heap, ds)
	refs := 0
	for _, tokens := range minted.tokens {
		for _, tok := range tokens {
			refs += referenceCells(t, tok)
		}
	}
	if refs == 0 {
		t.Fatal("no token carries a reference cell: nothing here depends on symbol ids")
	}

	arenaPath := filepath.Join(t.TempDir(), "master.arena")
	if err := heap.SaveMasterArena(arenaPath); err != nil {
		t.Fatal(err)
	}
	loaded, err := certainfix.NewFromArena(ds.Sigma, arenaPath, testKey, certainfix.WithAuth())
	if err != nil {
		t.Fatal(err)
	}
	resumeAll(t, "arena", loaded, ds, minted, minted)

	dir := t.TempDir()
	leader, err := certainfix.New(ds.Sigma, rel, certainfix.WithWAL(dir), testKey)
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/wal", leader.ServeWAL)
	mux.HandleFunc("GET /v1/checkpoint", leader.ServeCheckpoint)
	ts := httptest.NewServer(mux)
	defer ts.Close()
	follower, err := certainfix.NewFollower(ds.Sigma, ts.URL, testKey, certainfix.WithMasterHistory(1))
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	resumeAll(t, "follower", follower, ds, minted, minted)

	// Rows of values no master row held, then their deletion: the head's
	// rows are epoch 0's again, its symbol table is not.
	symbols := leader.MasterMemStats().Symbols
	var fresh []certainfix.Tuple
	for i := 0; i < 3; i++ {
		tup := rel.Tuple(0).Clone()
		for c := range tup {
			tup[c] = certainfix.String(fmt.Sprintf("fresh-%d-%d", i, c))
		}
		fresh = append(fresh, tup)
	}
	n := leader.MasterLen()
	if _, err := leader.UpdateMaster(fresh, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := leader.UpdateMaster(nil, []int{n + 2, n + 1, n}); err != nil {
		t.Fatal(err)
	}
	if got := leader.MasterMemStats().Symbols; got <= symbols || leader.MasterLen() != n {
		t.Fatalf("after the deltas: %d symbols (was %d), |Dm| %d (was %d)", got, symbols, leader.MasterLen(), n)
	}
	waitFor(t, "the follower to reach the head", func() bool { return follower.MasterEpoch() == leader.MasterEpoch() })
	rebaseAll := func(form string, sys *certainfix.System) {
		t.Helper()
		if _, err := sys.Resume(context.Background(), minted.tokens[0][0]); !errors.Is(err, certainfix.ErrEpochEvicted) {
			t.Fatalf("%s: resume of an epoch-0 token = %v, want ErrEpochEvicted", form, err)
		}
		resumeAll(t, form+" rebased", sys, ds, minted, mintRuns(t, sys, ds), certainfix.RebaseToHead())
	}
	rebaseAll("follower", follower)
	follower.Close()
	if err := leader.Close(); err != nil {
		t.Fatal(err)
	}

	recovered, err := certainfix.New(ds.Sigma, nil, certainfix.WithWAL(dir), testKey)
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := recovered.Durability(); !st.Recovery.UsedCheckpoint || st.Recovery.Replayed != 2 {
		t.Fatalf("recovery %+v, want the checkpoint and a WAL tail of 2", st.Recovery)
	}
	resumeAll(t, "recovered leader", recovered, ds, minted, minted)
	if err := recovered.Close(); err != nil {
		t.Fatal(err)
	}
	recovered, err = certainfix.New(ds.Sigma, nil, certainfix.WithWAL(dir), testKey, certainfix.WithMasterHistory(1))
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	rebaseAll("recovered leader", recovered)
}

// TestTokensRefuseAnotherLineage: a System built independently over the
// same rows in reverse order, under the same key, numbers the master's
// values otherwise. Every token that carries a reference fails there with
// ErrBadToken instead of resuming on other input values; a token whose
// cells all travel as themselves still resumes.
func TestTokensRefuseAnotherLineage(t *testing.T) {
	ds, err := datagen.Hosp(datagen.Config{Seed: 1, MasterSize: 1000, Tuples: 30, DupRate: 0.3, NoiseRate: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	rel := ds.Master.Relation()
	sys, err := certainfix.New(ds.Sigma, rel, testKey)
	if err != nil {
		t.Fatal(err)
	}
	reversed := certainfix.NewRelation(rel.Schema())
	for i := rel.Len() - 1; i >= 0; i-- {
		reversed.MustAppend(rel.Tuple(i).Clone())
	}
	other, err := certainfix.New(ds.Sigma, reversed, testKey)
	if err != nil {
		t.Fatal(err)
	}
	refused := 0
	for i, tokens := range mintRuns(t, sys, ds).tokens {
		for k, tok := range tokens {
			_, err := other.Resume(context.Background(), tok)
			if referenceCells(t, tok) == 0 {
				if err != nil {
					t.Fatalf("input %d boundary %d: a token without references = %v, want it to resume", i, k, err)
				}
				continue
			}
			if !errors.Is(err, certainfix.ErrBadToken) {
				t.Fatalf("input %d boundary %d: a token with references on another lineage = %v, want ErrBadToken", i, k, err)
			}
			refused++
		}
	}
	if refused == 0 {
		t.Fatal("no token carries a reference: nothing was refused")
	}
}
