// Resumable sessions: suspend a half-finished fix, move it to another
// process, continue it there — even while master data changes underneath.
//
// The demo walks the paper's running example (tuple t2 of Fig. 1a)
// through the session API:
//
//  1. "process A" begins a fix, answers round 1 and serializes the
//     session into a token: a compact binary image sealed with an HMAC
//     under the deployment's token key;
//  2. "process B" — an independently constructed System over the same
//     rules and master data, given the same key — resumes the token and
//     finishes the fix; a System without the key refuses it;
//  3. the same suspend/resume is repeated while an UpdateMaster lands in
//     between: the resumed session re-pins its original master epoch, so
//     the outcome is unchanged;
//  4. with a one-slot snapshot ring the epoch is evicted instead, and the
//     resume demonstrates ErrEpochEvicted plus the RebaseToHead escape
//     hatch.
//
// Run with: go run ./examples/resumable
package main

import (
	"context"
	"errors"
	"fmt"
	"log"

	"repro/internal/paperex"
	"repro/pkg/certainfix"
)

func main() {
	ctx := context.Background()
	input := paperex.InputT2() // str and zip missing, city wrong
	truth := certainfix.StringTuple(
		"Robert", "Brady", "131", "6884563", "1",
		"51 Elm Row", "Edi", "EH7 4AH", "CD")

	// --- 1. Process A: begin, one round, suspend. -----------------------
	sysA := newSystem()
	sess, err := sysA.Begin(ctx, input)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("input:  ", input)
	answerRound(sess, truth)
	fmt.Printf("after round 1 (epoch %d): %v\n", sess.Epoch(), sess.Tuple())

	token, err := sess.MarshalBinary()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("suspended: token is %d authenticated bytes, server holds nothing\n", len(token))

	// --- 2. Process B: resume and finish. -------------------------------
	sysB := newSystem() // a different System instance: same rules + master + key
	resumed, err := sysB.Resume(ctx, token)
	if err != nil {
		log.Fatal(err)
	}
	stranger, err := certainfix.New(paperex.Sigma0(), paperex.MasterRelation()) // draws its own key
	if err != nil {
		log.Fatal(err)
	}
	if _, err := stranger.Resume(ctx, token); errors.Is(err, certainfix.ErrBadToken) {
		fmt.Println("a System without the deployment's token key refuses it: ErrBadToken")
	}
	for !resumed.Done() {
		answerRound(resumed, truth)
	}
	res := resumed.Result()
	fmt.Printf("resumed elsewhere, finished in %d rounds total: %v (completed=%v)\n\n",
		res.Rounds, res.Tuple, res.Completed)

	// --- 3. Resume across a master update: the epoch is re-pinned. ------
	sysC := newSystem()
	sess, err = sysC.Begin(ctx, input)
	if err != nil {
		log.Fatal(err)
	}
	answerRound(sess, truth)
	token, _ = sess.MarshalBinary()

	// Master correction lands while the session is suspended.
	epoch, err := sysC.UpdateMaster([]certainfix.Tuple{newMasterTuple()}, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("master updated to epoch %d while the session was suspended\n", epoch)

	resumed, err = sysC.Resume(ctx, token)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("resumed session still observes its original epoch %d (head is %d)\n\n",
		resumed.Epoch(), sysC.MasterEpoch())

	// --- 4. Eviction and the rebase escape hatch. -----------------------
	sysD, err := certainfix.New(paperex.Sigma0(), paperex.MasterRelation(),
		certainfix.WithMasterHistory(1)) // keep only the head
	if err != nil {
		log.Fatal(err)
	}
	sess, err = sysD.Begin(ctx, input)
	if err != nil {
		log.Fatal(err)
	}
	answerRound(sess, truth)
	token, _ = sess.MarshalBinary()
	if _, err := sysD.UpdateMaster([]certainfix.Tuple{newMasterTuple()}, nil); err != nil {
		log.Fatal(err)
	}

	if _, err := sysD.Resume(ctx, token); errors.Is(err, certainfix.ErrEpochEvicted) {
		fmt.Println("one-slot ring: resume fails with ErrEpochEvicted, as documented")
	} else if err != nil {
		log.Fatal(err)
	}
	resumed, err = sysD.Resume(ctx, token, certainfix.RebaseToHead())
	if err != nil {
		log.Fatal(err)
	}
	for !resumed.Done() {
		answerRound(resumed, truth)
	}
	fmt.Printf("rebased onto head epoch %d and finished: %v\n",
		resumed.Epoch(), resumed.Result().Tuple)
}

// newSystem is one replica of the demo deployment: the replicas share the
// token key, which in production comes from a secret store.
func newSystem() *certainfix.System {
	sys, err := certainfix.New(paperex.Sigma0(), paperex.MasterRelation(),
		certainfix.WithTokenKey([]byte("resumable-demo-token-key")))
	if err != nil {
		log.Fatal(err)
	}
	return sys
}

// answerRound asserts the truth for whatever the session suggests.
func answerRound(sess *certainfix.FixSession, truth certainfix.Tuple) {
	attrs := sess.Suggested()
	values := make([]certainfix.Value, len(attrs))
	for i, p := range attrs {
		values[i] = truth[p]
	}
	if err := sess.Provide(attrs, values); err != nil {
		log.Fatal(err)
	}
}

// newMasterTuple is a fresh master record for the update steps.
func newMasterTuple() certainfix.Tuple {
	return certainfix.StringTuple(
		"Jane", "Doe", "999", "5551234", "070000000",
		"1 Test St", "Tst", "ZZ1 1ZZ", "01/01/70", "F")
}
