package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"etherm/api"
)

// eventHub fans job progress events out to SSE subscribers. Publishing
// never blocks on a slow consumer: events queue per subscriber and
// consecutive sample events of the same scenario coalesce (watchers see
// the latest count, not every increment), so a stalled client cannot back
// up the scenario engine's event path.
type eventHub struct {
	mu   sync.Mutex
	subs map[string]map[*eventSub]struct{}
	// watchers counts open SSE streams (batch and fleet watchers both),
	// exposed via /metrics and /healthz.
	watchers atomic.Int64
	// draining flips when the server drains, so a watcher that subscribes
	// after the shutdown broadcast still ends its stream with a shutdown
	// event.
	draining atomic.Bool
}

// watcherCount returns the number of open SSE streams.
func (h *eventHub) watcherCount() int64 { return h.watchers.Load() }

// eventSub is one watcher's queue.
type eventSub struct {
	mu       sync.Mutex
	queue    []api.JobEvent
	sampleAt map[string]int // scenario → queue index of its pending sample event
	notify   chan struct{}  // 1-slot wakeup
}

func newEventHub() *eventHub {
	return &eventHub{subs: make(map[string]map[*eventSub]struct{})}
}

// subscribe registers a watcher for one job's events.
func (h *eventHub) subscribe(jobID string) *eventSub {
	sub := &eventSub{notify: make(chan struct{}, 1)}
	h.mu.Lock()
	if h.subs[jobID] == nil {
		h.subs[jobID] = make(map[*eventSub]struct{})
	}
	h.subs[jobID][sub] = struct{}{}
	h.mu.Unlock()
	return sub
}

// unsubscribe removes a watcher.
func (h *eventHub) unsubscribe(jobID string, sub *eventSub) {
	h.mu.Lock()
	if set := h.subs[jobID]; set != nil {
		delete(set, sub)
		if len(set) == 0 {
			delete(h.subs, jobID)
		}
	}
	h.mu.Unlock()
}

// shutdown broadcasts the graceful-drain event to every open stream: each
// subscriber, batch or fleet, gets an EventShutdown queued (the watch loop
// writes it and ends the stream). After shutdown, no SSE stream dangles
// into the listener teardown — every watcher sees an explicit final frame.
func (h *eventHub) shutdown() {
	h.draining.Store(true)
	h.mu.Lock()
	for id, set := range h.subs {
		for sub := range set {
			sub.push(api.JobEvent{Type: api.EventShutdown, JobID: id})
		}
	}
	h.mu.Unlock()
}

// publish queues ev on every subscriber of the job.
func (h *eventHub) publish(jobID string, ev api.JobEvent) {
	h.mu.Lock()
	for sub := range h.subs[jobID] {
		sub.push(ev)
	}
	h.mu.Unlock()
}

// push enqueues one event and wakes the subscriber. Sample events
// coalesce per scenario — a pending one is overwritten in place — so the
// queue of a slow watcher is bounded by the batch size (one sample slot
// per scenario plus the finite lifecycle events), even with many
// concurrent streaming scenarios interleaving their progress.
func (s *eventSub) push(ev api.JobEvent) {
	s.mu.Lock()
	if ev.Type == api.EventSample {
		if i, ok := s.sampleAt[ev.Scenario]; ok {
			s.queue[i] = ev
			s.mu.Unlock()
			s.wake()
			return
		}
		if s.sampleAt == nil {
			s.sampleAt = make(map[string]int)
		}
		s.sampleAt[ev.Scenario] = len(s.queue)
	}
	s.queue = append(s.queue, ev)
	s.mu.Unlock()
	s.wake()
}

func (s *eventSub) wake() {
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// drain takes the queued events.
func (s *eventSub) drain() []api.JobEvent {
	s.mu.Lock()
	out := s.queue
	s.queue = nil
	s.sampleAt = nil
	s.mu.Unlock()
	return out
}

// sseKeepalive is the idle comment interval of an event stream.
const sseKeepalive = 15 * time.Second

// handleEvents serves GET /v1/jobs/{id}/events: a server-sent-event stream
// of the job's progress (api.JobEvent frames) that opens with a status
// snapshot and closes after the terminal status event. Batch jobs stream
// live engine events (scenario completions, streaming-campaign sample
// counts); fleet job IDs stream the coordinator's shard progress. Both
// arrive through the hub, so one subscribe → snapshot → loop serves
// either kind. Subscribing before snapshotting closes the race with a job
// finishing in between: the terminal transition is then either in the
// snapshot or in the queue.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	flusher, ok := w.(http.Flusher)
	if !ok {
		api.WriteError(w, r, api.NewError(http.StatusInternalServerError, api.CodeInternal,
			"response writer does not support streaming"))
		return
	}
	sub := s.hub.subscribe(id)
	defer s.hub.unsubscribe(id, sub)
	snap, ok := s.statusSnapshot(id)
	if !ok {
		api.WriteError(w, r, api.Errorf(http.StatusNotFound, api.CodeNotFound, "no such job %s", id))
		return
	}
	s.hub.watchers.Add(1)
	defer s.hub.watchers.Add(-1)
	sseHeaders(w)
	if err := writeEvent(w, flusher, snap); err != nil || snap.Terminal() {
		return
	}
	// A watcher arriving after the drain broadcast would miss it (the
	// broadcast only reaches subscribers that existed then): close the
	// race by ending the fresh stream with its own shutdown event.
	if s.hub.draining.Load() {
		_ = writeEvent(w, flusher, api.JobEvent{Type: api.EventShutdown, JobID: id})
		return
	}

	keepalive := time.NewTicker(sseKeepalive)
	defer keepalive.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-keepalive.C:
			if _, err := fmt.Fprint(w, ": keepalive\n\n"); err != nil {
				return
			}
			flusher.Flush()
		case <-sub.notify:
			for _, ev := range sub.drain() {
				if err := writeEvent(w, flusher, ev); err != nil {
					return
				}
				// Terminal status and drain shutdown both end the stream;
				// only the former means the job is done.
				if ev.Terminal() || ev.Type == api.EventShutdown {
					return
				}
			}
		}
	}
}

// sseHeaders switches the response into an event stream.
func sseHeaders(w http.ResponseWriter) {
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no") // defeat buffering proxies
	w.WriteHeader(http.StatusOK)
}

// writeEvent renders one SSE frame.
func writeEvent(w http.ResponseWriter, flusher http.Flusher, ev api.JobEvent) error {
	data, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, data); err != nil {
		return err
	}
	flusher.Flush()
	return nil
}

// statusSnapshot renders the current status event of a batch or fleet job.
func (s *Server) statusSnapshot(id string) (api.JobEvent, bool) {
	if j := s.snapshot(id); j != nil {
		return statusEvent(j), true
	}
	fv, ok := s.coord.Job(id)
	if !ok {
		return api.JobEvent{}, false
	}
	return api.JobEvent{Type: api.EventStatus, JobID: id, Status: fv.Status,
		ShardsDone: fv.ShardsDone, ShardsTotal: len(fv.Shards), Error: fv.Error}, true
}
