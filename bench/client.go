package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"repro/pkg/certainfix"
)

// countingConn counts every byte that crosses the socket, headers
// included: what the wire carries, not what the JSON weighs.
type countingConn struct {
	net.Conn
	sent, recv *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.recv.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.sent.Add(int64(n))
	return n, err
}

// client is one keep-alive connection to the server, used by one
// goroutine at a time.
type client struct {
	http       *http.Client
	base       string
	sent, recv atomic.Int64
	tr         *tracer
}

func newClient(base string, tr *tracer) *client {
	c := &client{base: base, tr: tr}
	dialer := &net.Dialer{}
	c.http = &http.Client{Transport: &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			conn, err := dialer.DialContext(ctx, network, addr)
			if err != nil {
				return nil, err
			}
			return countingConn{Conn: conn, sent: &c.sent, recv: &c.recv}, nil
		},
		MaxConnsPerHost:    1,
		DisableCompression: true,
	}}
	return c
}

func (c *client) close() { c.http.CloseIdleConnections() }

// reply is one HTTP exchange as the client saw it. The latency runs from
// handing the request to the transport until the last body byte is read;
// encoding the request and decoding the reply are the client's own work
// and stay outside it.
type reply struct {
	status    int
	body      []byte
	latency   time.Duration
	sent, got int64
}

func (c *client) post(path string, body []byte) (reply, error) {
	sent0, recv0 := c.sent.Load(), c.recv.Load()
	start := time.Now()
	resp, err := c.http.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return reply{}, err
	}
	return reply{
		status: resp.StatusCode, body: b, latency: time.Since(start),
		sent: c.sent.Load() - sent0, got: c.recv.Load() - recv0,
	}, nil
}

// wireSession is the reply of /v1/begin and /v1/answer.
type wireSession struct {
	Token     json.RawMessage  `json:"token"`
	Suggested []int            `json:"suggested"`
	Tuple     certainfix.Tuple `json:"tuple"`
	Rounds    int              `json:"rounds"`
	Done      bool             `json:"done"`
	Completed bool             `json:"completed"`
	Epoch     uint64           `json:"epoch"`
	Root      string           `json:"root"`
}

// session is one fix in flight: begin, answer rounds from the truth
// tuple, result. Its latency is the sum of its requests' latencies, so
// time a parked session spends waiting is not counted.
type session struct {
	idx     int // which generated input
	truth   certainfix.Tuple
	ws      wireSession
	span    int
	latency time.Duration
	sent    int64
	got     int64
	answers []time.Duration
	begin   time.Duration
	result  time.Duration
	evicted int  // 409 epoch_evicted replies, each followed by a rebase
	rebased bool // finished on another epoch than it began on
}

// call posts one request of the session, accounts for it, and retries
// once with "rebase" when the server has evicted the session's epoch:
// that 409 is the documented protocol, not a failure.
func (c *client) call(s *session, name, path string, req map[string]any, lat *time.Duration) ([]byte, error) {
	for {
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		sp := c.tr.begin(name, s.span, s.idx)
		r, err := c.post(path, body)
		c.tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		s.latency += r.latency
		*lat += r.latency
		s.sent += r.sent
		s.got += r.got
		if r.status == http.StatusOK {
			return r.body, nil
		}
		var e struct {
			Code string `json:"code"`
		}
		_ = json.Unmarshal(r.body, &e) // an unreadable error body is reported as is below
		if r.status == http.StatusConflict && e.Code == "epoch_evicted" && req["rebase"] == nil {
			s.evicted++
			s.rebased = true
			req["rebase"] = true
			continue
		}
		return nil, fmt.Errorf("%s: HTTP %d %s", path, r.status, bytes.TrimSpace(r.body))
	}
}

func (c *client) beginSession(idx int, input, truth certainfix.Tuple) (*session, error) {
	s := &session{idx: idx, truth: truth}
	s.span = c.tr.begin("fix", -1, idx)
	body, err := c.call(s, "certainfixd.begin", "/v1/begin", map[string]any{"tuple": input}, &s.begin)
	if err != nil {
		return nil, err
	}
	return s, json.Unmarshal(body, &s.ws)
}

// answer runs one round: the user types the truth for every suggested
// attribute.
func (c *client) answer(s *session) error {
	values := make([]certainfix.Value, len(s.ws.Suggested))
	for i, p := range s.ws.Suggested {
		values[i] = s.truth[p]
	}
	var lat time.Duration
	body, err := c.call(s, "certainfixd.answer", "/v1/answer",
		map[string]any{"token": s.ws.Token, "attrs": s.ws.Suggested, "values": values}, &lat)
	if err != nil {
		return err
	}
	s.answers = append(s.answers, lat)
	s.ws = wireSession{}
	return json.Unmarshal(body, &s.ws)
}

// finish answers until the session is done and fetches its result.
func (c *client) finish(s *session) (*certainfix.Result, error) {
	defer c.tr.end(s.span)
	for rounds := 0; !s.ws.Done; rounds++ {
		if rounds > 64 {
			return nil, fmt.Errorf("session %d not done after %d rounds", s.idx, rounds)
		}
		if err := c.answer(s); err != nil {
			return nil, err
		}
	}
	body, err := c.call(s, "certainfixd.result", "/v1/result", map[string]any{"token": s.ws.Token}, &s.result)
	if err != nil {
		return nil, err
	}
	var out struct {
		Result certainfix.Result `json:"result"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return nil, fmt.Errorf("/v1/result: %w", err)
	}
	return &out.Result, nil
}
