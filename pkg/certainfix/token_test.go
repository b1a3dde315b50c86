package certainfix_test

// The session token at the public surface, on generated HOSP and DBLP
// sessions: suspending and resuming at any round boundary, on another
// System sharing the key, changes nothing about the Result; and the
// token's size and the cost of its round trip stay within the budget the
// binary format bought (tier-1 holds the gain, not only cfbench).

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"repro/internal/datagen"
	"repro/pkg/certainfix"
)

// generated is one datagen world served by two Systems that share the
// token key — two replicas of one deployment.
type generated struct {
	ds   *datagen.Dataset
	a, b *certainfix.System
}

func generate(tb testing.TB, name string, tuples int) generated {
	tb.Helper()
	gen := map[string]func(datagen.Config) (*datagen.Dataset, error){"hosp": datagen.Hosp, "dblp": datagen.Dblp}[name]
	ds, err := gen(datagen.Config{Seed: 1, MasterSize: 1000, Tuples: tuples, DupRate: 0.3, NoiseRate: 0.2})
	if err != nil {
		tb.Fatal(err)
	}
	g := generated{ds: ds}
	for _, sys := range []**certainfix.System{&g.a, &g.b} {
		if *sys, err = certainfix.New(ds.Sigma, ds.Master.Relation(), testKey); err != nil {
			tb.Fatal(err)
		}
	}
	return g
}

// hop suspends sess and resumes it on sys.
func hop(tb testing.TB, sess *certainfix.FixSession, sys *certainfix.System) (*certainfix.FixSession, []byte) {
	tb.Helper()
	token, err := sess.MarshalBinary()
	if err != nil {
		tb.Fatal(err)
	}
	resumed, err := sys.Resume(context.Background(), token)
	if err != nil {
		tb.Fatal(err)
	}
	return resumed, token
}

// TestResumeEquivalence: for every generated session and every round
// boundary k (before the first round, between rounds, after the last), a
// run suspended at k on one System and resumed on the other returns a
// Result reflect.DeepEqual to the uninterrupted run's — PerRound and
// Provenance included — and so does a run that hops between the two
// Systems at every boundary.
func TestResumeEquivalence(t *testing.T) {
	for _, name := range []string{"hosp", "dblp"} {
		t.Run(name, func(t *testing.T) {
			g := generate(t, name, 60)
			ctx := context.Background()
			for i, input := range g.ds.Inputs {
				sess, err := g.a.Begin(ctx, input)
				if err != nil {
					t.Fatal(err)
				}
				want := driveToEnd(t, sess, g.ds.Truths[i])

				// hopAt < 0 hops at every boundary.
				for hopAt := -1; hopAt <= want.Rounds; hopAt++ {
					sess, err := g.a.Begin(ctx, input)
					if err != nil {
						t.Fatal(err)
					}
					on := g.a
					for k := 0; ; k++ {
						if hopAt < 0 || hopAt == k {
							if on == g.a {
								on = g.b
							} else {
								on = g.a
							}
							sess, _ = hop(t, sess, on)
						}
						if sess.Done() {
							break
						}
						provideRound(t, sess, g.ds.Truths[i])
					}
					if got := sess.Result(); !reflect.DeepEqual(got, want) {
						t.Fatalf("input %d suspended at boundary %d differs from the uninterrupted run:\n got  %+v\n want %+v",
							i, hopAt, got, want)
					}
				}
			}
		})
	}
}

// finalTokens drives every generated session through the server's
// protocol — resume, act, marshal on every request — and returns each
// session's last token, the one /v1/result is asked with.
func (g generated) finalTokens(tb testing.TB) [][]byte {
	tb.Helper()
	tokens := make([][]byte, len(g.ds.Inputs))
	for i, input := range g.ds.Inputs {
		sess, err := g.a.Begin(context.Background(), input)
		if err != nil {
			tb.Fatal(err)
		}
		for !sess.Done() {
			sess, _ = hop(tb, sess, g.a)
			provideRound(tb, sess, g.ds.Truths[i])
		}
		_, tokens[i] = hop(tb, sess, g.a)
	}
	return tokens
}

// TestTokenSizeBudget pins what the binary token bought on HOSP sessions
// (arity 19, ~2 rounds): the final token — the largest a session mints,
// with every round's inputs in it — and the allocations of one resume +
// marshal round trip. The JSON token it replaced averaged ~1,500 bytes
// (max ~1,950); the image of the session's derived state that followed
// it, 362 B (max 433 B); the inputs with every begin cell written as
// itself, 323 B (max 432 B, 130 allocs); format 5, which references
// interned begin cells, 261 B (max 418 B, 128 allocs). The size bounds
// leave a quarter of headroom over what format 6 — a round's assertions
// as their difference with its suggestion, ascending lists as bitmaps
// when shorter, no pending suggestion once done — measures (mean 233 B,
// max 368 B, 127 allocs), the alloc bound over the 130: a regression
// past them is a format change, not noise.
func TestTokenSizeBudget(t *testing.T) {
	g := generate(t, "hosp", 200)
	tokens := g.finalTokens(t)
	total, longest := 0, tokens[0]
	for _, tok := range tokens {
		total += len(tok)
		if len(tok) > len(longest) {
			longest = tok
		}
	}
	mean := float64(total) / float64(len(tokens))
	t.Logf("final token: mean %.0f B, max %d B over %d sessions", mean, len(longest), len(tokens))
	if mean > 291 || len(longest) > 460 {
		t.Errorf("final token: mean %.0f B (budget 291), max %d B (budget 460)", mean, len(longest))
	}

	// Resume is a replay: most of these are the recorded rounds' consistency checks and cascades.
	ctx := context.Background()
	allocs := testing.AllocsPerRun(100, func() {
		sess, err := g.a.Resume(ctx, longest)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.MarshalBinary(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("resume + marshal of the longest token: %.0f allocs", allocs)
	if allocs > 163 {
		t.Errorf("resume + marshal: %.0f allocs, budget 163", allocs)
	}
}

// TestTokenConcurrentRoundTrips: the pooled HMAC states behind Resume and
// MarshalBinary are shared by every request goroutine of a server; run
// under -race, concurrent round trips must each reproduce their token.
func TestTokenConcurrentRoundTrips(t *testing.T) {
	g := generate(t, "hosp", 40)
	tokens := g.finalTokens(t)
	ctx := context.Background()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tok := tokens[(w+i)%len(tokens)]
				sess, err := g.b.Resume(ctx, tok)
				if err != nil {
					t.Error(err)
					return
				}
				if again, err := sess.MarshalBinary(); err != nil || !bytes.Equal(again, tok) {
					t.Errorf("token changed across a concurrent round trip (%v)", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// BenchmarkTokenRoundTrip is the server's per-request token work: resume
// a final HOSP token and marshal the session again. Run with -benchmem;
// allocs/op is the number to watch (GOMAXPROCS is pinned so the pooled
// HMAC states behave the same on every host). A pool miss allocates a
// fresh state, so the timed loop must not see one: every P's pool is
// filled first — more goroutines than Ps round-trip concurrently, so a P
// holds states of its own and spares others may take — and GC, which
// empties pools, is off while timing.
func BenchmarkTokenRoundTrip(b *testing.B) {
	g := generate(b, "hosp", 200)
	tokens := g.finalTokens(b)
	ctx := context.Background()
	roundTrip := func(token []byte) (int, error) {
		sess, err := g.a.Resume(ctx, token)
		if err != nil {
			return 0, err
		}
		tok, err := sess.MarshalBinary()
		return len(tok), err
	}
	for _, procs := range []int{1, 4} {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			prev := runtime.GOMAXPROCS(procs)
			defer runtime.GOMAXPROCS(prev)
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			var wg sync.WaitGroup
			for w := 0; w < 4*procs; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for _, token := range tokens {
						if _, err := roundTrip(token); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			size := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n, err := roundTrip(tokens[i%len(tokens)])
				if err != nil {
					b.Fatal(err)
				}
				size += n
			}
			b.ReportMetric(float64(size)/float64(b.N), "token-B/op")
		})
	}
}
