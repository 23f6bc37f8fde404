package server

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"

	"repro/internal/stream"
)

// metrics holds the server's counters, bumped on the hot paths; Samples
// names and describes each one.
type metrics struct {
	degraded atomic.Int32 // 0 healthy, see degradeReasonString

	accepted, rejected, throttled, encodeErrors, encodePanics                atomic.Int64
	mineCount, lastMineTxns, minePanics, mineTimeouts                        atomic.Int64
	checkpoints, checkpointErrors, checkpointFallbacks, restored             atomic.Int64
	walAppends, walErrors, walReplayed, walCorruptFrames, walSegmentsRemoved atomic.Int64
}

// Sample is one /metrics reading. The JSON body maps Key to Value, which
// keeps its Go type; the Prometheus scrape renders numbers and bools only.
type Sample struct {
	Key, Help string
	Kind      string  // Prometheus TYPE: "counter" or "gauge"
	Labels    []Label // the first one names the scope: tenant or shard
	Value     any
}

// Label is one Prometheus label pair.
type Label struct{ Name, Value string }

// Counter declares a sample that only grows.
func Counter(key, help string, v any) Sample {
	return Sample{Key: key, Help: help, Kind: "counter", Value: v}
}

// Gauge declares a sample that can go up and down.
func Gauge(key, help string, v any) Sample {
	return Sample{Key: key, Help: help, Kind: "gauge", Value: v}
}

// Samples reads every counter and gauge of the server, each declared here
// and nowhere else. One snapshot load feeds every snapshot-derived sample,
// so a scrape never pairs one mine's snapshot_seq with another mine's
// last_mine_ms.
func (s *Server) Samples() []Sample {
	m := &s.metrics
	now := s.clock.Now()
	degraded := m.degraded.Load()
	snap := s.snap.Load()
	mined := snap != nil
	if !mined {
		snap = &Snapshot{View: &stream.View{}, MinedAt: now} // every snapshot gauge reads 0
	}
	out := []Sample{
		Gauge("uptime_s", "Seconds since the server started.", now.Sub(s.started).Seconds()),
		Counter("ingest_accepted", "Events enqueued into the mining loop.", m.accepted.Load()),
		Counter("ingest_rejected", "Events refused by validation.", m.rejected.Load()),
		Counter("ingest_throttled", "Events refused by backpressure (HTTP 429).", m.throttled.Load()),
		Counter("encode_errors", "Events dropped inside the mining loop.", m.encodeErrors.Load()),
		Counter("encode_panics", "Events whose encode panicked and was recovered.", m.encodePanics.Load()),
		Gauge("queue_depth", "Events waiting in the ingest queue.", len(s.queue)),
		Gauge("queue_capacity", "Capacity of the ingest queue.", cap(s.queue)),
		Gauge("window_capacity", "Sliding-window length in transactions.", s.cfg.WindowSize),
		Counter("mine_count", "Snapshots published.", m.mineCount.Load()),
		Gauge("last_mine_ms", "Milliseconds from window capture to the built published snapshot.", float64(snap.MineDuration)/1e6),
		Gauge("last_mine_txns", "Transactions the latest published mine added since the previous capture.", m.lastMineTxns.Load()),
		Counter("mine_panics_total", "Mines that panicked (recovered, snapshot kept).", m.minePanics.Load()),
		Counter("mine_timeouts_total", "Mines abandoned by the watchdog.", m.mineTimeouts.Load()),
		Gauge("degraded", "1 while the last mine failed and the previous snapshot is served stale.", degraded != degradedNone),
		Gauge("watch_subscribers", "Open drift watch streams.", s.watch.Subscribers()),
		Counter("watch_events_total", "Drift events published to watchers.", s.watch.EventsPublished()),
		Counter("checkpoints", "Checkpoints written.", m.checkpoints.Load()),
		Counter("checkpoint_errors", "Checkpoint writes that failed.", m.checkpointErrors.Load()),
		Counter("checkpoint_fallbacks", "Restores that fell back past an unreadable newest checkpoint.", m.checkpointFallbacks.Load()),
		Gauge("restored", "1 when this instance started from a checkpoint.", m.restored.Load()),
		Gauge("snapshot_seq", "Sequence number of the published snapshot.", snap.Seq),
		Gauge("window_len", "Transactions in the published snapshot's window.", snap.View.WindowLen),
		Gauge("rules", "Rules in the published snapshot.", len(snap.View.Rules)),
		Gauge("snapshot_age_s", "Seconds since the published snapshot was mined.", now.Sub(snap.MinedAt).Seconds()),
	}
	if reason := degradeReasonString(degraded); reason != "" {
		out = append(out, Gauge("degraded_reason", "Why the server is degraded.", reason))
	}
	if s.wal != nil {
		out = append(out,
			Counter("wal_appends", "Records framed into the write-ahead log.", m.walAppends.Load()),
			Counter("wal_errors", "WAL appends that failed; the client was told to re-send.", m.walErrors.Load()),
			Counter("wal_replayed", "Records replayed from the WAL tail at startup.", m.walReplayed.Load()),
			Counter("wal_corrupt_frames", "WAL frames skipped for CRC or decode damage.", m.walCorruptFrames.Load()),
			Counter("wal_segments_removed", "Sealed WAL segments removed behind checkpoints.", m.walSegmentsRemoved.Load()),
			Gauge("wal_applied_seq", "WAL seq of the newest record applied to the window.", s.lastApplied.Load()),
		)
	}
	if mined {
		out = append(out,
			Gauge("snapshot_stale", "1 while the published snapshot is a stale republish.", snap.Stale),
			Counter("observed_total", "Transactions observed since the stream began.", snap.View.Total),
		)
		if snap.Index != nil {
			hits, misses := snap.Index.CacheStats()
			out = append(out,
				Counter("keyword_cache_hits", "Keyword analyses the snapshot's index served from its cache.", hits),
				Counter("keyword_cache_misses", "Keyword analyses the snapshot's index computed cold.", misses),
			)
		}
	}
	return out
}

// Metrics returns the /metrics JSON body: every sample's key and value.
func (s *Server) Metrics() map[string]any { return MetricsJSON(s.Samples()) }

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	samples := s.Samples()
	ServeMetrics(w, r, samples, MetricsJSON(samples))
}

// MetricsJSON renders samples as one flat JSON object, key to value.
func MetricsJSON(samples []Sample) map[string]any {
	out := make(map[string]any, len(samples))
	for _, sm := range samples {
		out[sm.Key] = sm.Value
	}
	return out
}

// ServeMetrics answers GET /metrics for both fronts: samples in the
// Prometheus text exposition format under ?format=prometheus, and the JSON
// body the caller rendered from the same samples otherwise. A nil request
// reads as a plain GET.
func ServeMetrics(w http.ResponseWriter, r *http.Request, samples []Sample, body any) {
	if r == nil || r.URL.Query().Get("format") != "prometheus" {
		WriteJSON(w, http.StatusOK, body)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	writePromText(w, samples)
}

// labelEscaper escapes a label value per the text exposition format.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// writePromText renders samples as Prometheus text: one HELP and one TYPE line
// per series family, in the order families first appear, then all of that
// family's samples together. A family is named "armine_" + scope + key,
// where the scope is the first label's name and "_" (empty when
// unlabelled), with "_total" appended to a counter that lacks it. Bools
// render as 0 and 1; string values are left to the JSON body.
func writePromText(w io.Writer, samples []Sample) {
	var names []string
	families := map[string]*strings.Builder{}
	for _, sm := range samples {
		var v string
		switch x := sm.Value.(type) {
		case int, int64, uint64, float64:
			v = fmt.Sprint(x)
		case bool:
			v = "0"
			if x {
				v = "1"
			}
		default:
			continue
		}
		name := "armine_" + sm.Key
		if len(sm.Labels) > 0 {
			name = "armine_" + sm.Labels[0].Name + "_" + sm.Key
		}
		if sm.Kind == "counter" && !strings.HasSuffix(name, "_total") {
			name += "_total"
		}
		f := families[name]
		if f == nil {
			f = &strings.Builder{}
			f.WriteString("# HELP " + name + " " + sm.Help + "\n# TYPE " + name + " " + sm.Kind + "\n")
			families[name] = f
			names = append(names, name)
		}
		f.WriteString(name)
		if len(sm.Labels) > 0 {
			pairs := make([]string, len(sm.Labels))
			for i, l := range sm.Labels {
				pairs[i] = l.Name + `="` + labelEscaper.Replace(l.Value) + `"`
			}
			f.WriteString("{" + strings.Join(pairs, ",") + "}")
		}
		f.WriteString(" " + v + "\n")
	}
	for _, name := range names {
		_, _ = io.WriteString(w, families[name].String())
	}
}
