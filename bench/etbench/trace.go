package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// tracer keeps the spans of a traced run in memory. A nil *tracer is the
// untraced mode: every method is a no-op, so workloads call it
// unconditionally.
type tracer struct {
	epoch  time.Time
	nextID atomic.Int64

	mu    sync.Mutex
	spans []span
}

// span is one timed call across a layer boundary, as written to the trace
// file. Times are nanoseconds since the trace epoch; Parent 0 marks a root.
type span struct {
	ID       int64              `json:"id"`
	Parent   int64              `json:"parent,omitempty"`
	Name     string             `json:"name"`
	Req      string             `json:"req,omitempty"`
	Start    int64              `json:"start_ns"`
	End      int64              `json:"end_ns"`
	Self     int64              `json:"self_ns"`
	Counters map[string]float64 `json:"counters,omitempty"`
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// open is a started span; end records it.
type open struct {
	t      *tracer
	id     int64
	parent int64
	name   string
	req    string
	start  time.Time
}

// begin starts a span named after the layer call it wraps. req identifies
// the request or sample the span belongs to; parent is the enclosing span's
// ID (0 for a root).
func (t *tracer) begin(name, req string, parent int64) open {
	if t == nil {
		return open{}
	}
	return open{t: t, id: t.nextID.Add(1), parent: parent, name: name, req: req, start: time.Now()}
}

// end records the span with the counters attached at its boundary.
func (o open) end(counters map[string]float64) {
	if o.t != nil {
		o.t.record(o.name, o.req, o.id, o.parent, o.start, time.Now(), counters)
	}
}

// record adds a span with explicit times, for intervals another process or
// layer timestamped (such as a job's server-side queue wait). id 0 draws a
// fresh ID.
func (t *tracer) record(name, req string, id, parent int64, start, end time.Time, counters map[string]float64) int64 {
	if t == nil {
		return 0
	}
	if id == 0 {
		id = t.nextID.Add(1)
	}
	s := span{
		ID: id, Parent: parent, Name: name, Req: req,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)),
		Counters: counters,
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return id
}

// finish computes every span's self time — its duration minus the part of
// it that child spans cover — and returns the spans in start order.
func (t *tracer) finish() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int64][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for i := range t.spans {
		t.spans[i].Self = selfTime(t.spans[i], children[t.spans[i].ID])
	}
	sort.SliceStable(t.spans, func(a, b int) bool { return t.spans[a].Start < t.spans[b].Start })
	return t.spans
}

// selfTime is s's duration minus the union of its children's intervals
// clipped to s.
func selfTime(s span, children []span) int64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, s.Start), min(c.End, s.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	covered := int64(0)
	curLo, curHi := int64(0), int64(-1)
	for _, v := range iv {
		if v[0] > curHi {
			if curHi > curLo {
				covered += curHi - curLo
			}
			curLo, curHi = v[0], v[1]
		} else if v[1] > curHi {
			curHi = v[1]
		}
	}
	if curHi > curLo {
		covered += curHi - curLo
	}
	return s.End - s.Start - covered
}

// durations returns the durations, in unit, of every span with this name.
func (t *tracer) durations(name string, unit time.Duration) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/float64(unit))
		}
	}
	return out
}

// perCall returns, for every span with this name, its duration in unit
// divided by its "calls" counter: the per-call time of a batched probe.
func (t *tracer) perCall(name string, unit time.Duration) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.Counters["calls"] > 0 {
			out = append(out, float64(s.End-s.Start)/float64(unit)/s.Counters["calls"])
		}
	}
	return out
}

// counter returns one counter of every span with this name.
func (t *tracer) counter(name, key string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if v, ok := s.Counters[key]; ok && s.Name == name {
			out = append(out, v)
		}
	}
	return out
}

// layerTotal sums the count, duration and self time of one span name.
type layerTotal struct {
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// write stores the finished spans and per-name totals as
// <dir>/<workload>.json.
func (t *tracer) write(dir, workload string, seed uint64) (string, error) {
	spans := t.finish()
	totals := make(map[string]*layerTotal)
	for _, s := range spans {
		lt := totals[s.Name]
		if lt == nil {
			lt = &layerTotal{}
			totals[s.Name] = lt
		}
		lt.Count++
		lt.TotalMS += float64(s.End-s.Start) / 1e6
		lt.SelfMS += float64(s.Self) / 1e6
	}
	data, err := json.Marshal(map[string]any{
		"workload": workload, "seed": seed, "layers": totals, "spans": spans,
	})
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".json")
	return path, os.WriteFile(path, data, 0o644)
}
