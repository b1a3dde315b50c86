package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/pkg/certainfix"
)

// oracle decides whether a delivered fix is correct.
type oracle struct {
	rules *certainfix.Rules
	// expected holds, per generated input, what System.FixContext returns
	// for it in this process. It is nil on the storm workload, whose
	// master moves under the sessions: there a fix is checked against the
	// Merkle root its own session pinned.
	expected []certainfix.Result
}

func (o *oracle) check(s *session, res *certainfix.Result) error {
	if !res.Completed {
		return fmt.Errorf("input %d: fix not completed after %d rounds", s.idx, res.Rounds)
	}
	if !res.Tuple.Equal(s.truth) {
		return fmt.Errorf("input %d: fixed tuple %v is not the truth %v", s.idx, res.Tuple, s.truth)
	}
	if o.expected != nil {
		if want := o.expected[s.idx]; !res.Tuple.Equal(want.Tuple) || res.Rounds != want.Rounds {
			return fmt.Errorf("input %d: HTTP fix (%d rounds) %v differs from in-process FixContext (%d rounds) %v",
				s.idx, res.Rounds, res.Tuple, want.Rounds, want.Tuple)
		}
		return nil
	}
	// A rebased session finished on a newer master than the one that
	// justified its earlier cascades; its witness ids resolve against the
	// head, so its provenance is not expected to verify under one root.
	if s.rebased {
		return nil
	}
	if res.Root != s.ws.Root {
		return fmt.Errorf("input %d: result root %s differs from the root its session pinned, %s", s.idx, res.Root, s.ws.Root)
	}
	if err := certainfix.VerifyFix(o.rules, res, s.ws.Root); err != nil {
		return fmt.Errorf("input %d: %w", s.idx, err)
	}
	return nil
}

// Parking: on the storm workload every parkEvery-th session is suspended
// after its first answer, its token held by the client, and resumed after
// parkShort further sessions (the server still retains the epoch: a
// historical pin) or, alternately, parkLong (the epoch is evicted: 409,
// then a rebase).
const (
	parkEvery = 10
	parkShort = 10
	parkLong  = 200
)

// inputCost is what the first fix of one generated input cost. Averaging
// over inputs, not over however many fixes the window happened to hold,
// makes the count metrics repeat exactly.
type inputCost struct {
	bytes     int64
	userAttrs int
	rounds    int
}

// fixStats is what the closed-loop clients gathered in one window.
type fixStats struct {
	fix, answer      []sample // whole sessions, and single /v1/answer rounds
	begin, result    []time.Duration
	sent, got        int64
	evicted, resumed int
	failed           int
	firstErr         error
	perInput         map[int]inputCost
}

// absorbFailures carries the failures of a pass whose timings are not
// reported (the warm-up) into the pass that is: a failure anywhere in the
// run fails the run.
func (a *fixStats) absorbFailures(b *fixStats) {
	a.failed += b.failed
	if a.firstErr == nil {
		a.firstErr = b.firstErr
	}
}

func (a *fixStats) merge(b *fixStats) {
	a.fix = append(a.fix, b.fix...)
	a.begin = append(a.begin, b.begin...)
	a.answer = append(a.answer, b.answer...)
	a.result = append(a.result, b.result...)
	a.sent += b.sent
	a.got += b.got
	a.evicted += b.evicted
	a.resumed += b.resumed
	a.absorbFailures(b)
	for k, v := range b.perInput {
		a.perInput[k] = v
	}
}

type parked struct {
	s   *session
	due int64 // resume once the driver reaches this session number
}

// fixDriver is one closed-loop client: it sends a session's next request
// only after the previous reply arrived. Drivers share the counter that
// hands out session numbers; session n fixes generated input n mod
// numInputs.
type fixDriver struct {
	c       *client
	data    *dataset
	oracle  *oracle
	next    *atomic.Int64
	park    bool
	waiting []parked // in due order per kind, so a linear scan suffices
	nparked int
}

// run fixes sessions until the deadline passes or the shared counter
// reaches limit.
func (d *fixDriver) run(deadline time.Time, limit int64) *fixStats {
	st := &fixStats{perInput: make(map[int]inputCost)}
	for time.Now().Before(deadline) {
		n := d.next.Add(1) - 1
		if n >= limit {
			break
		}
		// Resume what is due before starting something new.
		keep := d.waiting[:0]
		for _, p := range d.waiting {
			if p.due <= n {
				st.resumed++
				d.complete(p.s, st)
			} else {
				keep = append(keep, p)
			}
		}
		d.waiting = keep

		idx := int(n % numInputs)
		s, err := d.c.beginSession(idx, d.data.ds.Inputs[idx], d.data.ds.Truths[idx])
		if err != nil {
			st.fail(err)
			continue
		}
		if d.park && n%parkEvery == parkEvery-1 && !s.ws.Done {
			if err := d.c.answer(s); err != nil {
				st.fail(err)
				continue
			}
			if !s.ws.Done {
				wait := int64(parkShort)
				if d.nparked%2 == 1 {
					wait = parkLong
				}
				d.nparked++
				d.waiting = append(d.waiting, parked{s: s, due: n + wait})
				continue
			}
		}
		d.complete(s, st)
	}
	return st
}

// abandon closes the spans of sessions still parked when the run ends.
func (d *fixDriver) abandon() {
	for _, p := range d.waiting {
		d.c.tr.end(p.s.span)
	}
	d.waiting = nil
}

func (st *fixStats) fail(err error) {
	st.failed++
	if st.firstErr == nil {
		st.firstErr = err
	}
}

// complete finishes a session, checks its fix and books it.
func (d *fixDriver) complete(s *session, st *fixStats) {
	res, err := d.c.finish(s)
	if err == nil {
		err = d.oracle.check(s, res)
	}
	if err != nil {
		st.fail(err)
		return
	}
	now := time.Now()
	st.fix = append(st.fix, sample{at: now, d: s.latency})
	st.begin = append(st.begin, s.begin)
	for _, d := range s.answers {
		st.answer = append(st.answer, sample{at: now, d: d})
	}
	st.result = append(st.result, s.result)
	st.sent += s.sent
	st.got += s.got
	st.evicted += s.evicted
	if _, seen := st.perInput[s.idx]; !seen && s.evicted == 0 {
		st.perInput[s.idx] = inputCost{bytes: s.sent + s.got, userAttrs: res.UserValidated.Len(), rounds: res.Rounds}
	}
}

// runFixers runs every driver over the same window and merges what they
// gathered; elapsed runs until the last driver finished its last fix.
func runFixers(drivers []*fixDriver, window time.Duration, limit int64) (*fixStats, time.Duration) {
	start := time.Now()
	deadline := start.Add(window)
	parts := make([]*fixStats, len(drivers))
	var wg sync.WaitGroup
	for i, d := range drivers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			parts[i] = d.run(deadline, limit)
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	total := parts[0]
	for _, p := range parts[1:] {
		total.merge(p)
	}
	return total, elapsed
}

// update is one batch the open-loop updater sent.
type update struct {
	due     time.Time
	late    time.Duration // how long after its due time it was sent
	service time.Duration // from sending it to its reply
	latency time.Duration // from its due time to its reply: late + service
}

// updater sends master-update batches on a fixed schedule, whatever the
// server does: batch i is due at start + i*interval. It times each batch
// from its due time, so a stall charges every batch it delays, and
// records how late the generator itself ran. Batches go out in order on
// one connection, because each names tuple ids the previous one produced.
type updater struct {
	c        *client
	bodies   [][]byte
	interval time.Duration

	stop    chan struct{}
	done    chan struct{}
	sent    []update
	acked   uint64 // newest epoch the server acknowledged
	failed  int
	lastErr error
}

func startUpdater(c *client, bodies [][]byte, interval time.Duration) *updater {
	u := &updater{c: c, bodies: bodies, interval: interval, stop: make(chan struct{}), done: make(chan struct{})}
	go u.loop(time.Now())
	return u
}

func (u *updater) loop(start time.Time) {
	defer close(u.done)
	timer := time.NewTimer(0)
	defer timer.Stop()
	for i, body := range u.bodies {
		due := start.Add(time.Duration(i) * u.interval)
		timer.Reset(time.Until(due))
		select {
		case <-u.stop:
			return
		case <-timer.C:
		}
		sentAt := time.Now()
		sp := u.c.tr.begin("certainfixd.update", -1, -1)
		r, err := u.c.post("/v1/update-master", body)
		u.c.tr.end(sp)
		if err == nil && r.status != http.StatusOK {
			err = fmt.Errorf("/v1/update-master: HTTP %d %s", r.status, r.body)
		}
		var ack struct {
			Epoch uint64 `json:"epoch"`
		}
		if err == nil {
			err = json.Unmarshal(r.body, &ack)
		}
		if err != nil {
			// Later batches name ids this one should have produced.
			u.failed++
			u.lastErr = err
			return
		}
		u.acked = ack.Epoch
		done := time.Now()
		u.sent = append(u.sent, update{due: due, late: sentAt.Sub(due), service: done.Sub(sentAt), latency: done.Sub(due)})
	}
	u.failed++
	u.lastErr = fmt.Errorf("updater ran out of its %d prepared batches", len(u.bodies))
}

// finish stops the schedule and waits for the batch in flight.
func (u *updater) finish() {
	close(u.stop)
	<-u.done
}

// during returns the batches that were due inside [from, to).
func (u *updater) during(from, to time.Time) []update {
	var out []update
	for _, x := range u.sent {
		if !x.due.Before(from) && x.due.Before(to) {
			out = append(out, x)
		}
	}
	return out
}
