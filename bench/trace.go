package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Start and End are nanoseconds
// since the tracer was made; Parent is the index of the span that caused
// it (-1 at the top); spans of one fix session share Session.
type span struct {
	Name    string `json:"name"`
	Start   int64  `json:"start"`
	End     int64  `json:"end"`
	Parent  int    `json:"parent"`
	Session int    `json:"session"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the untraced runs share the traced runs' code.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index, the handle end takes and the
// parent of any span opened inside it.
func (t *tracer) begin(name string, parent, session int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent, Session: session})
	t.mu.Unlock()
	return id
}

// end closes a span; id -1 is a span begun while tracing was off, as a
// session parked in the untraced pass and resumed in the traced one has.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// layerTime is what the spans of one name add up to.
type layerTime struct {
	Count  int
	Total  int64 // sum of durations, ns
	SelfNS int64 // sum of durations minus the part child spans cover, ns
}

// selfTimes totals every span name's duration and self time. A span's
// self time is its duration minus the part of its interval that its
// children cover; children that overlap each other are counted once, and
// a child reaching outside its parent is clipped to it.
func selfTimes(spans []span) map[string]layerTime {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make(map[string]layerTime)
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		var covered int64
		edge := s.Start // everything before edge is already accounted for
		for _, k := range kids {
			from, to := max(spans[k].Start, edge), min(spans[k].End, s.End)
			if to > from {
				covered += to - from
				edge = to
			}
		}
		lt := out[s.Name]
		lt.Count++
		lt.Total += s.End - s.Start
		lt.SelfNS += s.End - s.Start - covered
		out[s.Name] = lt
	}
	return out
}

// write stores the spans as one JSON array.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
