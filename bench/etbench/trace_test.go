package main

import (
	"testing"
	"time"
)

func TestSelfTime(t *testing.T) {
	sp := func(start, end int64) span { return span{Start: start, End: end} }
	for _, c := range []struct {
		name     string
		parent   span
		children []span
		want     int64
	}{
		{"no children", sp(0, 100), nil, 100},
		{"disjoint children", sp(0, 100), []span{sp(10, 20), sp(50, 80)}, 60},
		{"overlapping children count once", sp(0, 100), []span{sp(10, 40), sp(30, 60), sp(55, 70)}, 40},
		{"nested children count once", sp(0, 100), []span{sp(10, 90), sp(20, 30)}, 20},
		{"children clipped to the parent", sp(50, 100), []span{sp(0, 60), sp(90, 200)}, 30},
		{"child outside the parent", sp(0, 100), []span{sp(100, 150)}, 100},
		{"children cover everything", sp(0, 100), []span{sp(0, 50), sp(50, 100)}, 0},
	} {
		if got := selfTime(c.parent, c.children); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

func TestTracerSpansAndSelfTime(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.epoch.Add(time.Duration(ms) * time.Millisecond) }
	root := tr.record("client.job", "job-1", 0, 0, at(0), at(100), map[string]float64{"n": 1})
	tr.record("server.queue", "job-1", 0, root, at(0), at(30), nil)
	tr.record("server.run", "job-1", 0, root, at(20), at(90), nil)
	spans := tr.finish()
	if len(spans) != 3 {
		t.Fatalf("%d spans, want 3", len(spans))
	}
	self := map[string]int64{}
	for _, s := range spans {
		self[s.Name] = s.Self
	}
	if want := int64(10 * time.Millisecond); self["client.job"] != want {
		t.Errorf("root self time %v, want %v", time.Duration(self["client.job"]), time.Duration(want))
	}
	if got := tr.durations("server.run", time.Millisecond); len(got) != 1 || got[0] != 70 {
		t.Errorf("server.run durations %v, want [70]", got)
	}
	if got := tr.counter("client.job", "n"); len(got) != 1 || got[0] != 1 {
		t.Errorf("client.job counter %v, want [1]", got)
	}

	var off *tracer // the untraced mode records nothing and never panics
	s := off.begin("core.run", "", 0)
	s.end(map[string]float64{"x": 1})
	if id := off.record("x", "", 0, 0, time.Now(), time.Now(), nil); id != 0 {
		t.Errorf("nil tracer returned span ID %d", id)
	}
}
