package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/rules"
)

// watchRuleCap caps the appeared/vanished lists inside one push event; the
// totals still report the full counts, and /v1/drift serves the complete
// diff on demand.
const watchRuleCap = 100

// watchSubBuffer is the per-subscriber event buffer. A subscriber that
// falls this many publishes behind is disconnected (its client resumes via
// Last-Event-ID) instead of stalling the mining loop's publish.
const watchSubBuffer = 32

// watchRetryMS is the SSE retry hint: how long a disconnected client waits
// before reconnecting.
const watchRetryMS = 2000

// WatchEvent is one /v1/drift/watch push: the structural diff carried by a
// newly published snapshot, rendered once at publish time and shared by
// every subscriber. PrevSeq is omitted on the first snapshot, which has no
// predecessor. Appeared and Vanished are capped at watchRuleCap entries;
// AppearedTotal and VanishedTotal always carry the full counts.
type WatchEvent struct {
	Seq           int64            `json:"seq"`
	PrevSeq       int64            `json:"prev_seq,omitempty"`
	MinedAt       time.Time        `json:"mined_at"`
	Jaccard       float64          `json:"jaccard"`
	AppearedTotal int              `json:"appeared_total"`
	VanishedTotal int              `json:"vanished_total"`
	Appeared      []rules.RuleJSON `json:"appeared"`
	Vanished      []rules.RuleJSON `json:"vanished"`
}

// hubEvent is one rendered event in the hub's history ring.
type hubEvent struct {
	seq  int64
	data []byte
}

type watchSub struct {
	ch chan hubEvent
}

// WatchHub fans published snapshots out to /v1/drift/watch subscribers. It
// renders each event once, keeps a bounded history ring for Last-Event-ID
// resume, and never blocks the publisher: a subscriber whose buffer fills
// is dropped and reconnects through the ring. One hub serves one snapshot
// stream — the single miner's, one shard's, or the merged view's.
type WatchHub struct {
	history int

	mu     sync.Mutex
	ring   []hubEvent
	subs   map[*watchSub]struct{}
	notify map[chan struct{}]struct{}
	closed bool

	published atomic.Int64
	dropped   atomic.Int64
}

// NewWatchHub builds a hub retaining the last history events for resume;
// history <= 0 means 64.
func NewWatchHub(history int) *WatchHub {
	if history <= 0 {
		history = 64
	}
	return &WatchHub{
		history: history,
		subs:    make(map[*watchSub]struct{}),
		notify:  make(map[chan struct{}]struct{}),
	}
}

// Publish renders snap's delta and delivers it to every subscriber. Called
// from the publishing goroutine only; snapshots must arrive in seq order.
func (h *WatchHub) Publish(snap *Snapshot) {
	ev := WatchEvent{
		Seq:           snap.Seq,
		PrevSeq:       snap.PrevSeq,
		MinedAt:       snap.MinedAt,
		Jaccard:       snap.Delta.Jaccard,
		AppearedTotal: len(snap.Delta.Appeared),
		VanishedTotal: len(snap.Delta.Vanished),
		Appeared:      rules.ManyToJSON(truncate(snap.Delta.Appeared, watchRuleCap), snap.View.Catalog),
		Vanished:      rules.ManyToJSON(truncate(snap.Delta.Vanished, watchRuleCap), snap.View.Catalog),
	}
	data, err := json.Marshal(ev)
	if err != nil {
		return
	}
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	if len(h.ring) == h.history {
		copy(h.ring, h.ring[1:])
		h.ring = h.ring[:h.history-1]
	}
	h.ring = append(h.ring, hubEvent{seq: snap.Seq, data: data})
	for sub := range h.subs {
		select {
		case sub.ch <- hubEvent{seq: snap.Seq, data: data}:
		default:
			// The subscriber is watchSubBuffer publishes behind: cut it
			// loose so publish stays non-blocking. Its client reconnects
			// with Last-Event-ID and catches up from the ring.
			delete(h.subs, sub)
			close(sub.ch)
			h.dropped.Add(1)
		}
	}
	for ch := range h.notify {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
	h.mu.Unlock()
	h.published.Add(1)
}

// Subscribe registers a listener resuming after afterSeq: ring events newer
// than afterSeq are returned as backlog, and everything published later
// arrives on the channel. The channel closes when the hub closes or the
// subscriber falls too far behind; cancel is idempotent and safe after
// either. On a closed hub the channel comes back already closed.
func (h *WatchHub) Subscribe(afterSeq int64) (backlog []hubEvent, ch <-chan hubEvent, cancel func()) {
	sub := &watchSub{ch: make(chan hubEvent, watchSubBuffer)}
	h.mu.Lock()
	for _, ev := range h.ring {
		if ev.seq > afterSeq {
			backlog = append(backlog, ev)
		}
	}
	if h.closed {
		close(sub.ch)
		h.mu.Unlock()
		return backlog, sub.ch, func() {}
	}
	h.subs[sub] = struct{}{}
	h.mu.Unlock()
	cancel = func() {
		h.mu.Lock()
		if _, ok := h.subs[sub]; ok {
			delete(h.subs, sub)
			close(sub.ch)
		}
		h.mu.Unlock()
	}
	return backlog, sub.ch, cancel
}

// NotifyOn registers a coalescing wake-up channel (capacity 1 recommended):
// every Publish attempts a non-blocking send on it. The cluster merger uses
// this to learn that some shard published without subscribing to full
// event payloads. The returned func unregisters.
func (h *WatchHub) NotifyOn(ch chan struct{}) func() {
	h.mu.Lock()
	h.notify[ch] = struct{}{}
	h.mu.Unlock()
	return func() {
		h.mu.Lock()
		delete(h.notify, ch)
		h.mu.Unlock()
	}
}

// Close disconnects every subscriber and makes further Publish calls
// no-ops. Idempotent.
func (h *WatchHub) Close() {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.closed = true
	for sub := range h.subs {
		close(sub.ch)
	}
	h.subs = map[*watchSub]struct{}{}
	h.mu.Unlock()
}

// Subscribers reports the current live subscriber count.
func (h *WatchHub) Subscribers() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.subs)
}

// EventsPublished reports the lifetime publish count.
func (h *WatchHub) EventsPublished() int64 { return h.published.Load() }

// LatestSeq returns the newest seq in the ring, 0 when nothing published.
func (h *WatchHub) LatestSeq() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.ring) == 0 {
		return 0
	}
	return h.ring[len(h.ring)-1].seq
}

// watchHeartbeat is the SSE keep-alive comment cadence.
var watchHeartbeat = 15 * time.Second

// pollResponse is the ?mode=poll body: zero or more events in publish
// order. Clients pass the last event's seq back as last_event_id.
type pollResponse struct {
	Events []json.RawMessage `json:"events"`
}

// ServeWatch answers GET /v1/drift/watch from hub. The default mode is SSE
// (text/event-stream, one `drift` event per publish, `id:` carrying the
// snapshot seq, a retry hint, and comment heartbeats); `?mode=poll` is the
// long-poll fallback for clients without streaming support — it returns
// immediately with any events newer than last_event_id, otherwise waits up
// to `wait_s` (default 30) for the next publish. Resume in both modes is
// the snapshot seq, via the Last-Event-ID header or the `last_event_id`
// query parameter (the parameter wins).
func ServeWatch(w http.ResponseWriter, r *http.Request, hub *WatchHub) {
	q := r.URL.Query()
	lastRaw := q.Get("last_event_id")
	if lastRaw == "" {
		lastRaw = r.Header.Get("Last-Event-ID")
	}
	afterSeq := int64(-1)
	if lastRaw != "" {
		v, err := strconv.ParseInt(lastRaw, 10, 64)
		if err != nil || v < 0 {
			WriteError(w, http.StatusBadRequest, "last_event_id: want a non-negative snapshot seq, got %q", lastRaw)
			return
		}
		afterSeq = v
	}
	mode := q.Get("mode")
	if mode != "" && mode != "sse" && mode != "poll" {
		WriteError(w, http.StatusBadRequest, "mode must be sse or poll")
		return
	}
	waitS, err := intParam(q.Get("wait_s"), 30)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "wait_s: %v", err)
		return
	}
	if waitS > 60 {
		waitS = 60
	}
	flusher, canStream := w.(http.Flusher)
	if mode == "poll" || !canStream {
		serveWatchPoll(w, r, hub, afterSeq, time.Duration(waitS)*time.Second)
		return
	}
	// A fresh subscriber with no resume point starts from "now": drift
	// history is /v1/drift's job, the stream's is what happens next.
	if afterSeq < 0 {
		afterSeq = hub.LatestSeq()
	}
	backlog, ch, cancel := hub.Subscribe(afterSeq)
	defer cancel()

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-store")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintf(w, "retry: %d\n\n", watchRetryMS)
	for _, ev := range backlog {
		writeSSE(w, ev)
	}
	flusher.Flush()

	//armlint:allow clockcheck per-connection SSE keepalive, not mining state; tests shorten the watchHeartbeat var directly
	heartbeat := time.NewTicker(watchHeartbeat)
	defer heartbeat.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case ev, ok := <-ch:
			if !ok {
				// Hub closed (server stopping) or this subscriber was
				// dropped for falling behind; either way the client
				// reconnects with Last-Event-ID.
				return
			}
			writeSSE(w, ev)
			flusher.Flush()
		case <-heartbeat.C:
			fmt.Fprint(w, ": ping\n\n")
			flusher.Flush()
		}
	}
}

func writeSSE(w http.ResponseWriter, ev hubEvent) {
	fmt.Fprintf(w, "id: %d\nevent: drift\ndata: %s\n\n", ev.seq, ev.data)
}

// serveWatchPoll is the long-poll leg: one response per request, carrying
// every event newer than afterSeq, or an empty list after the wait expires.
func serveWatchPoll(w http.ResponseWriter, r *http.Request, hub *WatchHub, afterSeq int64, wait time.Duration) {
	if afterSeq < 0 {
		// Poll mode without a resume point reports anything already in the
		// ring, so a first poll on a mined server returns immediately.
		afterSeq = 0
	}
	backlog, ch, cancel := hub.Subscribe(afterSeq)
	defer cancel()
	resp := pollResponse{Events: []json.RawMessage{}}
	for _, ev := range backlog {
		resp.Events = append(resp.Events, json.RawMessage(ev.data))
	}
	if len(resp.Events) == 0 {
		//armlint:allow clockcheck per-request long-poll deadline, not mining state: it only ends an idle poll and feeds no snapshot or metric
		timer := time.NewTimer(wait)
		defer timer.Stop()
		select {
		case <-r.Context().Done():
		case <-timer.C:
		case ev, ok := <-ch:
			if ok {
				resp.Events = append(resp.Events, json.RawMessage(ev.data))
				// Sweep whatever landed in the same publish burst.
				for {
					select {
					case more, ok := <-ch:
						if !ok {
							goto done
						}
						resp.Events = append(resp.Events, json.RawMessage(more.data))
					default:
						goto done
					}
				}
			}
		}
	}
done:
	WriteJSON(w, http.StatusOK, resp)
}
