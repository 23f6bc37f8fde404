package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
)

// opRec is one request of the load phase. Latency runs from due, not from
// sent, so a stall is charged to every request it delayed.
type opRec struct {
	due, ready, sent, done time.Time
	status                 int
	bytes                  int
	ok                     bool
	measured               bool
}

func (r opRec) latencyMS() float64 { return ms(r.done.Sub(r.due)) }

// lagMS is how late the generator itself sent: the gap between the moment
// the request could go out (due, or the connection freeing up) and the
// moment it did.
func (r opRec) lagMS() float64 { return ms(r.sent.Sub(r.ready)) }

// observation is one snapshot the query connection saw.
type observation struct {
	t     time.Time
	total int
}

type loadResult struct {
	start    time.Time
	posts    []opRec
	queries  []opRec
	obs      []observation
	preload  int
	accepted []server.Event // load-phase events the server accepted, in order
	// acceptedDue and acceptedBurst give each accepted event's POST due time
	// and burst (the POST index for steady ingest).
	acceptedDue   []time.Time
	acceptedBurst []int
	bodies        [][]byte
	finalTotal    int
	shards        int
	probe         *client
	// m0 and mEnd are /metrics before and after the load phase; samples are
	// the traced run's periodic reads in between.
	m0, mEnd          map[string]any
	samples           []map[string]any
	attempted, failed int
	// measuredAccepted is the accepted count once the last measured POST
	// has returned (-1 before); visible flips when a snapshot covers them,
	// which ends the unmeasured tail of both streams.
	measuredAccepted atomic.Int64
	visible          atomic.Bool
}

func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

func later(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// runLoad runs the open-loop load phase on two connections — ingest on one,
// the query stream on the other — then keeps reading until a snapshot
// covers every accepted event.
func runLoad(w *workload, pl plan, tf *traffic, preload int, p *serveProc, tr *tracer) (*loadResult, error) {
	ingest := newClient(p.base)
	defer ingest.close()
	lr := &loadResult{preload: preload, probe: newClient(p.base), shards: w.shardCount()}
	lr.measuredAccepted.Store(-1)
	var err error
	if lr.m0, err = lr.probe.metrics(); err != nil {
		return nil, err
	}
	lr.start = time.Now().Add(20 * time.Millisecond)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		lr.ingestStream(pl, tf, ingest, tr)
	}()
	go func() {
		defer wg.Done()
		lr.queryStream(w, pl, tr)
	}()
	wg.Wait()
	lr.attempted = len(lr.posts) + len(lr.queries)
	for _, r := range append(append([]opRec(nil), lr.posts...), lr.queries...) {
		if !r.ok {
			lr.failed++
		}
	}

	// One server's final snapshot only has to cover the measured events:
	// its gate replays exactly the events the snapshot covers. A cluster's
	// gate compares the merged total with every accepted event, and whole
	// bursts always mine by count, so it waits for all of them.
	want := preload + int(lr.measuredAccepted.Load())
	if lr.shards > 1 {
		want = preload + len(lr.accepted)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		r := lr.probe.do("GET", "/v1/rules?limit=1", "", nil, "")
		if r.err == nil && r.status == http.StatusOK {
			h, err := parseHead(r.body)
			if err != nil {
				return nil, err
			}
			lr.observe(time.Now(), h.Total)
			lr.finalTotal = h.Total
			if h.Total >= want {
				break
			}
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("after the load phase a snapshot covers %d of %d accepted events", lr.finalTotal, want)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if lr.mEnd, err = lr.probe.metrics(); err != nil {
		return nil, err
	}
	return lr, nil
}

func (lr *loadResult) ingestStream(pl plan, tf *traffic, c *client, tr *tracer) {
	var free time.Time
	cursor := lr.preload
	for i, pp := range pl.posts {
		// The unmeasured tail stops between bursts, never inside one: a
		// cluster shard mines only whole bursts.
		if !pp.measured && lr.visible.Load() && (i == 0 || pl.posts[i-1].burst != pp.burst) {
			break
		}
		due := lr.start.Add(pp.due)
		sleepUntil(due)
		rec := opRec{due: due, ready: later(due, free), sent: time.Now()}
		lo := cursor
		cursor += pp.n
		body := tf.body(lo, cursor)
		r := c.do("POST", "/v1/jobs", tf.contentType(), body, "")
		rec.done = time.Now()
		free = rec.done
		rec.status, rec.bytes, rec.ok = r.status, len(r.body), r.err == nil && r.status == http.StatusOK
		rec.measured = pp.measured
		if r.err == nil {
			// A refused POST (429) may still have committed a prefix of
			// its body; those events count, the rest are dropped.
			var ir ingestReply
			if json.Unmarshal(r.body, &ir) == nil {
				for e := lo; e < lo+ir.Accepted; e++ {
					lr.accepted = append(lr.accepted, tf.events[e])
					lr.acceptedDue = append(lr.acceptedDue, due)
					lr.acceptedBurst = append(lr.acceptedBurst, pl.posts[i].burst)
				}
			}
		}
		lr.posts = append(lr.posts, rec)
		lr.bodies = append(lr.bodies, body)
		if pp.measured && (i+1 == len(pl.posts) || !pl.posts[i+1].measured) {
			lr.measuredAccepted.Store(int64(len(lr.accepted)))
		}
		if tr != nil {
			tr.record("http.POST /v1/jobs", rec.sent, rec.done)
		}
	}
}

func (lr *loadResult) queryStream(w *workload, pl plan, tr *tracer) {
	etags := make([]string, len(w.shapes))
	var free time.Time
	for i, q := range pl.queries {
		if !q.measured && lr.visible.Load() {
			break
		}
		due := lr.start.Add(q.due)
		sleepUntil(due)
		sh := w.shapes[q.shape]
		inm := ""
		if sh.revalidate {
			inm = etags[q.shape]
		}
		rec := opRec{due: due, ready: later(due, free), sent: time.Now()}
		r := lr.probe.do("GET", sh.path, "", nil, inm)
		rec.done = time.Now()
		rec.status, rec.bytes, rec.ok, rec.measured = r.status, len(r.body), r.ok(), q.measured
		if r.err == nil && r.status == http.StatusOK {
			etags[q.shape] = r.etag
			if route(sh.path) == "/v1/rules" {
				if h, err := parseHead(r.body); err == nil {
					lr.observe(rec.done, h.Total)
					if n := lr.measuredAccepted.Load(); n >= 0 && h.Total >= lr.preload+int(n) {
						lr.visible.Store(true)
					}
				}
			}
		}
		lr.queries = append(lr.queries, rec)
		if tr != nil {
			tr.record("http.GET "+route(sh.path), rec.sent, rec.done)
			if i%5 == 4 {
				if m, err := lr.probe.metrics(); err == nil {
					lr.samples = append(lr.samples, m)
				}
			}
		}
		free = time.Now()
	}
}

// observe records a snapshot's coverage; totals only grow, so only growth
// is kept and the list stays sorted for the visibility search.
func (lr *loadResult) observe(t time.Time, total int) {
	if n := len(lr.obs); n > 0 && total <= lr.obs[n-1].total {
		return
	}
	lr.obs = append(lr.obs, observation{t: t, total: total})
}

// visibleMS returns, per accepted load-phase event, the time from its
// POST's due time until the first observed snapshot covering it. With one
// in-order ingest connection the k-th accepted event is covered once
// observed_total reaches k. A merged view's total is a sum over shards, so
// it proves coverage only at burst granularity: an event counts as visible
// once the total covers its whole burst.
func (lr *loadResult) visibleMS() ([]float64, error) {
	thresholds := make([]int, len(lr.accepted))
	measured := int(lr.measuredAccepted.Load())
	for k := range lr.accepted {
		thresholds[k] = lr.preload + k + 1
	}
	if lr.shards > 1 {
		for k := len(lr.accepted) - 2; k >= 0; k-- {
			if lr.acceptedBurst[k] == lr.acceptedBurst[k+1] {
				thresholds[k] = thresholds[k+1]
			}
		}
	}
	out := make([]float64, measured)
	for k, thr := range thresholds[:measured] {
		i := sort.Search(len(lr.obs), func(i int) bool { return lr.obs[i].total >= thr })
		if i == len(lr.obs) {
			return nil, fmt.Errorf("event %d never became visible", lr.preload+k+1)
		}
		out[k] = ms(lr.obs[i].t.Sub(lr.acceptedDue[k]))
	}
	return out, nil
}

// endToEnd fills the user-visible metrics.
func (lr *loadResult) endToEnd(m map[string]float64) error {
	var acks, queries []float64
	lastDone, lastQuery := lr.start, lr.start
	for _, r := range lr.posts {
		if r.measured {
			acks = append(acks, r.latencyMS())
			lastDone = later(lastDone, r.done)
		}
	}
	for _, r := range lr.queries {
		if r.measured {
			queries = append(queries, r.latencyMS())
			lastQuery = later(lastQuery, r.done)
		}
	}
	// Not a reported metric: GETs answered per second, which is the read
	// path's saturation when -query-rate offers more than it serves. It goes
	// to standard error too, so a calibration run that the validity check
	// then voids still shows it.
	m["calib.query_per_s"] = float64(len(queries)) / lastQuery.Sub(lr.start).Seconds()
	fmt.Fprintf(os.Stderr, "perfbench: %.1f GETs answered per second\n", m["calib.query_per_s"])
	vis, err := lr.visibleMS()
	if err != nil {
		return err
	}
	m["ack_p50_ms"] = percentile(acks, 0.50)
	m["ack_p95_ms"] = percentile(acks, 0.95)
	m["visible_p50_ms"] = percentile(vis, 0.50)
	m["visible_p99_ms"] = percentile(vis, 0.99)
	m["query_p50_ms"] = percentile(queries, 0.50)
	m["query_p99_ms"] = percentile(queries, 0.99)
	m["ingest_eps"] = float64(lr.measuredAccepted.Load()) / lastDone.Sub(lr.start).Seconds()
	for _, c := range []struct {
		name string
		n    int
		p    float64
	}{{"ack_p95_ms", len(acks), 0.95}, {"visible_p99_ms", len(vis), 0.99}, {"query_p99_ms", len(queries), 0.99}} {
		if beyond := float64(c.n) * (1 - c.p); beyond < 10 {
			fmt.Fprintf(os.Stderr, "perfbench: %s rests on %d samples, %.1f beyond the percentile (fewer than 10)\n", c.name, c.n, beyond)
		}
	}
	lags := lr.lagsMS()
	m["loadgen.lag_p99_ms"] = percentile(lags, 0.99)
	m["loadgen.lag_max_ms"] = percentile(lags, 1)
	return nil
}

func (lr *loadResult) lagsMS() []float64 {
	var lags []float64
	for _, r := range lr.posts {
		lags = append(lags, r.lagMS())
	}
	for _, r := range lr.queries {
		lags = append(lags, r.lagMS())
	}
	return lags
}

// validity rejects a run whose generator slipped by more than one send
// interval at p99.
func (lr *loadResult) validity(sendInterval time.Duration) error {
	if p99 := percentile(lr.lagsMS(), 0.99); p99 > ms(sendInterval) {
		return &invalidRunError{fmt.Sprintf("load generator lag p99 %.2f ms exceeds the %.2f ms send interval", p99, ms(sendInterval))}
	}
	return nil
}

// replayPoints are the publish points the traced replay re-runs, as
// per-shard cumulative counts of accepted events: for one server, the
// observed_total of every snapshot the query connection saw after the
// preload; for a cluster, the shard counts at the end of each burst. The
// last replayPointCount+1 are kept (the first only seeds the diffs).
func (lr *loadResult) replayPoints(accepted []server.Event) [][]int {
	preload := lr.preload
	var pts [][]int
	if lr.shards == 1 {
		pts = append(pts, []int{preload})
		for _, o := range lr.obs {
			if o.total > pts[len(pts)-1][0] && o.total <= len(accepted) {
				pts = append(pts, []int{o.total})
			}
		}
	} else {
		counts := make([]int, lr.shards)
		for i, ev := range accepted {
			counts[shardOf(ev, lr.shards)]++
			k := i - preload // load-phase index
			if i == preload-1 || (k >= 0 && (k == len(lr.accepted)-1 || lr.acceptedBurst[k] != lr.acceptedBurst[k+1])) {
				pts = append(pts, append([]int(nil), counts...))
			}
		}
	}
	if len(pts) > replayPointCount+1 {
		pts = pts[len(pts)-replayPointCount-1:]
	}
	return pts
}

// live fills the per-layer metrics read from the server's own /metrics.
func (lr *loadResult) live(m map[string]float64, checkpointBytes float64) {
	blocks := func(snap map[string]any) []map[string]any {
		if lr.shards == 1 {
			return []map[string]any{snap}
		}
		var out []map[string]any
		list, _ := snap["shard"].([]any)
		for _, b := range list {
			if bm, ok := b.(map[string]any); ok {
				out = append(out, bm)
			}
		}
		return out
	}
	sum := func(snap map[string]any, key string) float64 {
		t := 0.0
		for _, b := range blocks(snap) {
			t += num(b[key])
		}
		return t
	}
	m["ingest.throttled"] = sum(lr.mEnd, "ingest_throttled") - sum(lr.m0, "ingest_throttled")
	if lr.shards == 1 {
		m["ingest.rejected"] = num(lr.mEnd["ingest_rejected"]) - num(lr.m0["ingest_rejected"])
	} else {
		m["ingest.rejected"] = num(lr.mEnd["rejected_total"]) - num(lr.m0["rejected_total"])
	}
	mines := sum(lr.mEnd, "mine_count") - sum(lr.m0, "mine_count")
	m["server.mines"] = mines
	if lr.shards > 1 {
		m["shard.merges_per_publish"] = (num(lr.mEnd["merged_watch_events_total"]) - num(lr.m0["merged_watch_events_total"])) / max(mines, 1)
	}

	type seqKey struct{ shard, seq int }
	lastMine := map[seqKey]float64{}
	hits, misses := map[int]float64{}, map[int]float64{}
	depth := 0.0
	for _, snap := range append(append([]map[string]any{lr.m0}, lr.samples...), lr.mEnd) {
		for i, b := range blocks(snap) {
			depth = max(depth, num(b["queue_depth"]))
			seq := int(num(b["snapshot_seq"]))
			if seq > 0 {
				lastMine[seqKey{i, seq}] = num(b["last_mine_ms"])
			}
			if lr.shards == 1 {
				hits[seq] = max(hits[seq], num(b["keyword_cache_hits"]))
				misses[seq] = max(misses[seq], num(b["keyword_cache_misses"]))
			}
		}
	}
	m["ingest.queue_depth_max"] = depth
	var mineMS []float64
	for _, v := range lastMine {
		mineMS = append(mineMS, v)
	}
	m["server.last_mine_ms"] = median(mineMS)
	h, mi := 0.0, 0.0
	for seq := range hits {
		h += hits[seq]
		mi += misses[seq]
	}
	m["index.cache_hit_ratio"] = 0
	if h+mi > 0 {
		m["index.cache_hit_ratio"] = h / (h + mi)
	}

	var bytes []float64
	notModified := 0
	for _, r := range lr.queries {
		switch r.status {
		case http.StatusNotModified:
			notModified++
		case http.StatusOK:
			bytes = append(bytes, float64(r.bytes))
		}
	}
	m["query.not_modified_share"] = float64(notModified) / float64(max(len(lr.queries), 1))
	m["query.resp_bytes"] = median(bytes)
	m["checkpoint.bytes"] = checkpointBytes
}

func num(v any) float64 {
	f, _ := v.(float64)
	return f
}
