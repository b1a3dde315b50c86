package certainfix_test

import (
	"context"
	"encoding/json"
	"errors"
	"testing"

	"repro/internal/paperex"
	"repro/pkg/certainfix"
)

// truthT2 is the ground truth for t2: s1's address block given
// (type, AC, phn), the remainder as entered.
func truthT2() certainfix.Tuple {
	return certainfix.StringTuple(
		"Robert", "Brady", "131", "6884563", "1",
		"51 Elm Row", "Edi", "EH7 4AH", "CD")
}

// testKey is the token key of Systems that stand for replicas of one
// deployment in these tests.
var testKey = certainfix.WithTokenKey([]byte("pkg-certainfix-test-token-key"))

// driveToEnd answers every suggestion from truth until the session is
// done.
func driveToEnd(t testing.TB, sess *certainfix.FixSession, truth certainfix.Tuple) certainfix.Result {
	t.Helper()
	for !sess.Done() {
		provideRound(t, sess, truth)
	}
	return sess.Result()
}

func provideRound(t testing.TB, sess *certainfix.FixSession, truth certainfix.Tuple) {
	t.Helper()
	attrs := sess.Suggested()
	values := make([]certainfix.Value, len(attrs))
	for i, p := range attrs {
		values[i] = truth[p]
	}
	if err := sess.Provide(attrs, values); err != nil {
		t.Fatal(err)
	}
}

func canonical(t *testing.T, r certainfix.Result) string {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestBeginMatchesFix: driving a FixSession produces the same result as
// the callback Fix (which is now a wrapper over sessions).
func TestBeginMatchesFix(t *testing.T) {
	sys := paperSystem(t)
	truth := truthT2()
	viaFix, err := sys.FixContext(context.Background(), paperex.InputT2(), certainfix.SimulatedUser{Truth: truth})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := sys.Begin(context.Background(), paperex.InputT2())
	if err != nil {
		t.Fatal(err)
	}
	viaSession := driveToEnd(t, sess, truth)
	if canonical(t, viaSession) != canonical(t, viaFix) {
		t.Fatalf("session result diverged from Fix:\n got  %s\n want %s",
			canonical(t, viaSession), canonical(t, viaFix))
	}
}

// TestTokenResumeInSeparateSystem is the headline acceptance scenario: a
// session serialized after round 1 and resumed in a *separate* System
// instance (same rules + master + token key) produces a Result
// byte-identical to the uninterrupted Fix — and a System holding another
// key refuses the token.
func TestTokenResumeInSeparateSystem(t *testing.T) {
	truth := truthT2()
	sysA := paperSystem(t, testKey)
	want, err := sysA.FixContext(context.Background(), paperex.InputT2(), certainfix.SimulatedUser{Truth: truth})
	if err != nil {
		t.Fatal(err)
	}
	if want.Rounds < 2 {
		t.Fatalf("fixture must need ≥ 2 rounds, got %d", want.Rounds)
	}

	sess, err := sysA.Begin(context.Background(), paperex.InputT2())
	if err != nil {
		t.Fatal(err)
	}
	provideRound(t, sess, truth)
	token, err := sess.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	// "Different process": an independently constructed System over the
	// same rules and master relation, given the same key.
	sysB := paperSystem(t, testKey)
	resumed, err := sysB.Resume(context.Background(), token)
	if err != nil {
		t.Fatal(err)
	}
	for name, stranger := range map[string]*certainfix.System{
		"another key":  paperSystem(t, certainfix.WithTokenKey([]byte("a different deployment"))),
		"a random key": paperSystem(t),
	} {
		if _, err := stranger.Resume(context.Background(), token); !errors.Is(err, certainfix.ErrBadToken) {
			t.Fatalf("resume under %s = %v, want ErrBadToken", name, err)
		}
	}
	if resumed.Rounds() != 1 {
		t.Fatalf("resumed rounds = %d, want 1", resumed.Rounds())
	}
	got := driveToEnd(t, resumed, truth)
	if canonical(t, got) != canonical(t, want) {
		t.Fatalf("resumed result diverged:\n got  %s\n want %s",
			canonical(t, got), canonical(t, want))
	}
}

// TestResumeUnderConcurrentUpdateMaster: an UpdateMaster lands while the
// session is suspended; the resumed session re-pins its original epoch
// via the snapshot ring and finishes byte-identically to the
// uninterrupted run.
func TestResumeUnderConcurrentUpdateMaster(t *testing.T) {
	truth := truthT2()
	sys := paperSystem(t)
	want, err := sys.FixContext(context.Background(), paperex.InputT2(), certainfix.SimulatedUser{Truth: truth})
	if err != nil {
		t.Fatal(err)
	}

	sess, err := sys.Begin(context.Background(), paperex.InputT2())
	if err != nil {
		t.Fatal(err)
	}
	e0 := sess.Epoch()
	provideRound(t, sess, truth)
	token, err := sess.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	// Master moves on: delete both master tuples, leaving the head with
	// an empty Dm — a session observing the head could fix nothing.
	epoch, err := sys.UpdateMaster(nil, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if epoch == e0 || sys.MasterLen() != 0 {
		t.Fatalf("head epoch=%d |Dm|=%d after update", epoch, sys.MasterLen())
	}

	resumed, err := sys.Resume(context.Background(), token)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Epoch() != e0 {
		t.Fatalf("resumed epoch = %d, want original %d", resumed.Epoch(), e0)
	}
	got := driveToEnd(t, resumed, truth)
	if canonical(t, got) != canonical(t, want) {
		t.Fatalf("resume under update diverged:\n got  %s\n want %s",
			canonical(t, got), canonical(t, want))
	}
}

// TestResumeEvictionAndRebase: with a single-slot snapshot ring the
// original epoch is evicted by the next update; Resume fails with
// ErrEpochEvicted and RebaseToHead is the documented escape hatch.
func TestResumeEvictionAndRebase(t *testing.T) {
	truth := truthT2()
	sys := paperSystem(t, certainfix.WithMasterHistory(1))
	sess, err := sys.Begin(context.Background(), paperex.InputT2())
	if err != nil {
		t.Fatal(err)
	}
	provideRound(t, sess, truth)
	token, err := sess.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	if _, err := sys.UpdateMaster([]certainfix.Tuple{certainfix.StringTuple(
		"Jane", "Doe", "999", "5551234", "070000000",
		"1 Test St", "Tst", "ZZ1 1ZZ", "01/01/70", "F")}, nil); err != nil {
		t.Fatal(err)
	}

	if _, err := sys.Resume(context.Background(), token); !errors.Is(err, certainfix.ErrEpochEvicted) {
		t.Fatalf("resume after eviction = %v, want ErrEpochEvicted", err)
	}
	resumed, err := sys.Resume(context.Background(), token, certainfix.RebaseToHead())
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Epoch() != sys.MasterEpoch() {
		t.Fatalf("rebased epoch = %d, want head %d", resumed.Epoch(), sys.MasterEpoch())
	}
	res := driveToEnd(t, resumed, truth)
	if !res.Completed || !res.Tuple.Equal(truth) {
		t.Fatalf("rebased session: completed=%v tuple=%v", res.Completed, res.Tuple)
	}
}

// TestRebaseVerifiesUnderHead: under WithAuth, a session whose first
// round took every fix from one master tuple — the only one supporting
// them — is suspended, s1 is deleted (a swap-remove moves s2 into id 0)
// and the epoch evicted. Resumed with RebaseToHead, the fix must verify
// against the head's root, whether round 1 fixed from s1 (its id now
// names s2) or from s2 (its id is now beyond the head's one tuple).
func TestRebaseVerifiesUnderHead(t *testing.T) {
	s2Truth := certainfix.StringTuple(
		"Mark", "Smith", "020", "6884563", "1",
		"20 Baker St.", "Lnd", "NW1 6XE", "CD")
	s2Input := s2Truth.Clone()
	s2Input[5], s2Input[6], s2Input[7] = certainfix.Null, certainfix.Null, certainfix.Null
	cases := []struct {
		name         string
		input, truth certainfix.Tuple
		witness      int // the master id round 1 fixes from
	}{
		{"witness id now names another tuple", paperex.InputT2(), truthT2(), 0},
		{"witness id beyond the head", s2Input, s2Truth, 1},
	}
	ctx := context.Background()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sys := paperSystem(t, certainfix.WithAuth(), certainfix.WithMasterHistory(1))
			sess, err := sys.Begin(ctx, c.input)
			if err != nil {
				t.Fatal(err)
			}
			provideRound(t, sess, c.truth)
			prov := sess.Result().Provenance
			if len(prov) == 0 || prov[0].MasterID != c.witness {
				t.Fatalf("round 1 provenance %+v, fixture wants master id %d", prov, c.witness)
			}
			token, err := sess.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sys.UpdateMaster(nil, []int{0}); err != nil {
				t.Fatal(err)
			}
			resumed, err := sys.Resume(ctx, token, certainfix.RebaseToHead())
			if err != nil {
				t.Fatalf("rebase of a legitimate token: %v", err)
			}
			res := driveToEnd(t, resumed, c.truth)
			root, _ := sys.MasterRoot()
			if !res.Completed || !res.Tuple.Equal(c.truth) || res.Root != root {
				t.Fatalf("rebased fix %v (completed %v, root %s), truth %v under head root %s", res.Tuple, res.Completed, res.Root, c.truth, root)
			}
			if err := certainfix.VerifyFix(paperex.Sigma0(), &res, root); err != nil {
				t.Fatalf("rebased fix under the head's root: %v", err)
			}
		})
	}
}

// TestResumeBadToken: garbage, tokens of the retired JSON format, and a
// genuine token with one byte changed or cut off all fail with
// ErrBadToken.
func TestResumeBadToken(t *testing.T) {
	sys := paperSystem(t)
	sess, err := sys.Begin(context.Background(), paperex.InputT2())
	if err != nil {
		t.Fatal(err)
	}
	provideRound(t, sess, truthT2())
	token, err := sess.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), token...)
	flipped[len(flipped)/2] ^= 0x40
	for name, bad := range map[string][]byte{
		"empty":      nil,
		"garbage":    []byte("{not json"),
		"json token": []byte(`{"v":1,"epoch":0,"tuple":["only-one"]}`),
		"flipped":    flipped,
		"truncated":  token[:len(token)-1],
		"extended":   append(append([]byte(nil), token...), 0),
	} {
		if _, err := sys.Resume(context.Background(), bad); !errors.Is(err, certainfix.ErrBadToken) {
			t.Fatalf("%s token = %v, want ErrBadToken", name, err)
		}
		if _, err := sys.Resume(context.Background(), bad, certainfix.RebaseToHead()); !errors.Is(err, certainfix.ErrBadToken) {
			t.Fatalf("%s token with rebase = %v, want ErrBadToken", name, err)
		}
	}
	if _, err := sys.Resume(context.Background(), token); err != nil {
		t.Fatalf("the genuine token must still resume: %v", err)
	}
}

// TestFunctionalOptions: option constructors configure the system, and
// later options override earlier ones.
func TestFunctionalOptions(t *testing.T) {
	minted := paperSystem(t, testKey)
	sess, err := minted.Begin(context.Background(), paperex.InputT4())
	if err != nil {
		t.Fatal(err)
	}
	token, err := sess.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	other := certainfix.WithTokenKey([]byte("another-test-token-key"))
	if _, err := paperSystem(t, other).Resume(context.Background(), token); !errors.Is(err, certainfix.ErrBadToken) {
		t.Fatalf("resume under another key = %v, want ErrBadToken", err)
	}
	if _, err := paperSystem(t, testKey, other).Resume(context.Background(), token); !errors.Is(err, certainfix.ErrBadToken) {
		t.Fatalf("resume where a later key overrides the minting one = %v, want ErrBadToken", err)
	}
	if _, err := paperSystem(t, other, testKey).Resume(context.Background(), token); err != nil {
		t.Fatalf("resume where the minting key overrides another: %v", err)
	}
}

// reasserter keeps asserting attribute 0 at its current value, whatever
// the session suggests: from the second round on it validates nothing new.
type reasserter struct{}

func (reasserter) Assert(t certainfix.Tuple, _ []int) ([]int, []certainfix.Value) {
	return []int{0}, []certainfix.Value{t[0]}
}

// TestRoundCap: every session ends after arity + 1 rounds. A user who
// keeps re-asserting an already validated attribute stops there, done and
// not completed — through FixContext, through Begin/Provide, and resumed
// from the token at every round boundary.
func TestRoundCap(t *testing.T) {
	sys := paperSystem(t, testKey)
	input := paperex.InputT4()
	want := len(input) + 1
	res, err := sys.FixContext(context.Background(), input, reasserter{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != want || res.Completed {
		t.Fatalf("FixContext: rounds=%d completed=%v, want %d rounds, incomplete", res.Rounds, res.Completed, want)
	}

	for _, resume := range []bool{false, true} {
		sess, err := sys.Begin(context.Background(), input)
		if err != nil {
			t.Fatal(err)
		}
		for !sess.Done() {
			if sess.Rounds() == want {
				t.Fatalf("resume=%v: session still open after %d rounds", resume, want)
			}
			attrs, values := reasserter{}.Assert(sess.Tuple(), sess.Suggested())
			if err := sess.Provide(attrs, values); err != nil {
				t.Fatal(err)
			}
			if resume {
				sess, _ = hop(t, sess, sys)
			}
		}
		if res := sess.Result(); res.Rounds != want || res.Completed {
			t.Fatalf("resume=%v: rounds=%d completed=%v, want %d rounds, incomplete", resume, res.Rounds, res.Completed, want)
		}
		if err := sess.Provide([]int{0}, []certainfix.Value{input[0]}); !errors.Is(err, certainfix.ErrSessionDone) {
			t.Fatalf("resume=%v: Provide past the cap = %v, want ErrSessionDone", resume, err)
		}
	}
}

// TestContextThreading: cancellation is observed by FixContext,
// FixSession.Provide, FixBatchContext and RepairBatchContext.
func TestContextThreading(t *testing.T) {
	sys := paperSystem(t)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()

	if _, err := sys.FixContext(cancelled, paperex.InputT1(), certainfix.SimulatedUser{Truth: truthT2()}); !errors.Is(err, context.Canceled) {
		t.Fatalf("FixContext = %v, want context.Canceled", err)
	}

	sess, err := sys.Begin(cancelled, paperex.InputT1())
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Provide([]int{0}, []certainfix.Value{certainfix.String("x")}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Provide under cancelled ctx = %v, want context.Canceled", err)
	}

	inputs := []certainfix.Tuple{paperex.InputT4()}
	if _, err := sys.FixBatchContext(cancelled, inputs, func(i int) certainfix.User {
		return certainfix.SimulatedUser{Truth: inputs[i]}
	}, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("FixBatchContext = %v, want context.Canceled", err)
	}

	if _, err := sys.RepairBatchContext(cancelled, inputs, nil, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("RepairBatchContext = %v, want context.Canceled", err)
	}
}

// TestTypedSentinelsSurface: the re-exported sentinels match errors from
// the public entry points.
func TestTypedSentinelsSurface(t *testing.T) {
	sys := paperSystem(t)

	if _, err := sys.Begin(context.Background(), certainfix.StringTuple("short")); !errors.Is(err, certainfix.ErrArityMismatch) {
		t.Fatalf("Begin short tuple = %v, want ErrArityMismatch", err)
	}

	sess, err := sys.Begin(context.Background(), paperex.InputT1())
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Provide(nil, nil); err != nil { // abort
		t.Fatal(err)
	}
	err = sess.Provide([]int{0}, []certainfix.Value{certainfix.Null})
	if !errors.Is(err, certainfix.ErrSessionDone) {
		t.Fatalf("Provide after abort = %v, want ErrSessionDone", err)
	}

	// t3 with both key groups validated: ϕ-rules disagree → the repair
	// path surfaces ErrInconsistent with ConflictError details.
	r := sys.Schema()
	_, _, _, err = sys.RepairOnce(paperex.InputT3(), r.MustPosList("zip", "AC", "phn", "type"))
	if !errors.Is(err, certainfix.ErrInconsistent) {
		t.Fatalf("conflicting repair = %v, want ErrInconsistent", err)
	}
	var ce *certainfix.ConflictError
	if !errors.As(err, &ce) || len(ce.Values) < 2 {
		t.Fatalf("conflict details missing: %v", err)
	}
}
