package server

import (
	"sync/atomic"
)

// metrics are plain expvar-style counters: atomically bumped on the hot
// paths, dumped as a flat JSON object by /metrics. No histogram machinery —
// the point is that an operator (or a scrape job) can watch ingest keep up
// with mining at a glance.
type metrics struct {
	accepted      atomic.Int64 // events enqueued
	rejected      atomic.Int64 // events refused by validation
	throttled     atomic.Int64 // events refused by backpressure (429)
	encodeErrors  atomic.Int64 // events dropped inside the mining loop
	encodePanics  atomic.Int64 // poison events whose encode panicked (recovered)
	mineCount     atomic.Int64 // snapshots published
	lastMineNanos atomic.Int64 // duration of the latest re-mine
	lastMineTxns  atomic.Int64 // transactions the latest published re-mine added since the previous capture
	minePanics    atomic.Int64 // mines that panicked (recovered, snapshot kept)
	mineTimeouts  atomic.Int64 // mines abandoned by the watchdog
	degraded      atomic.Int32 // current failure mode: 0 healthy, see degradeReasonString

	checkpoints         atomic.Int64 // state files written
	checkpointErrors    atomic.Int64 // state file writes that failed
	checkpointFallbacks atomic.Int64 // restores that fell back past an unreadable newest generation
	restored            atomic.Int64 // 1 when this instance started from a checkpoint

	walAppends         atomic.Int64 // records framed into the WAL
	walErrors          atomic.Int64 // WAL appends that failed (record rolled back, client told to re-send)
	walReplayed        atomic.Int64 // records replayed from the WAL tail at startup
	walCorruptFrames   atomic.Int64 // frames skipped for CRC/decode damage (startup scan + replay)
	walSegmentsRemoved atomic.Int64 // sealed segments garbage-collected behind checkpoints
}

// view renders the counters plus the derived gauges into a JSON-ready map.
func (s *Server) metricsView() map[string]any {
	out := map[string]any{
		"uptime_s":             s.clock.Now().Sub(s.started).Seconds(),
		"ingest_accepted":      s.metrics.accepted.Load(),
		"ingest_rejected":      s.metrics.rejected.Load(),
		"ingest_throttled":     s.metrics.throttled.Load(),
		"encode_errors":        s.metrics.encodeErrors.Load(),
		"encode_panics":        s.metrics.encodePanics.Load(),
		"queue_depth":          len(s.queue),
		"queue_capacity":       cap(s.queue),
		"window_capacity":      s.cfg.WindowSize,
		"mine_count":           s.metrics.mineCount.Load(),
		"last_mine_ms":         float64(s.metrics.lastMineNanos.Load()) / 1e6,
		"last_mine_txns":       s.metrics.lastMineTxns.Load(),
		"mine_panics_total":    s.metrics.minePanics.Load(),
		"mine_timeouts_total":  s.metrics.mineTimeouts.Load(),
		"degraded":             s.metrics.degraded.Load() != degradedNone,
		"watch_subscribers":    s.watch.Subscribers(),
		"watch_events_total":   s.watch.EventsPublished(),
		"checkpoints":          s.metrics.checkpoints.Load(),
		"checkpoint_errors":    s.metrics.checkpointErrors.Load(),
		"checkpoint_fallbacks": s.metrics.checkpointFallbacks.Load(),
		"restored":             s.metrics.restored.Load(),
		"snapshot_seq":         int64(0),
		"window_len":           0,
		"rules":                0,
		"snapshot_age_s":       float64(0),
	}
	if reason := degradeReasonString(s.metrics.degraded.Load()); reason != "" {
		out["degraded_reason"] = reason
	}
	if s.wal != nil {
		out["wal_appends"] = s.metrics.walAppends.Load()
		out["wal_errors"] = s.metrics.walErrors.Load()
		out["wal_replayed"] = s.metrics.walReplayed.Load()
		out["wal_corrupt_frames"] = s.metrics.walCorruptFrames.Load()
		out["wal_segments_removed"] = s.metrics.walSegmentsRemoved.Load()
		out["wal_applied_seq"] = s.lastApplied.Load()
	}
	if snap := s.snap.Load(); snap != nil {
		out["snapshot_seq"] = snap.Seq
		out["window_len"] = snap.View.WindowLen
		out["rules"] = len(snap.View.Rules)
		out["snapshot_age_s"] = s.clock.Now().Sub(snap.MinedAt).Seconds()
		out["snapshot_stale"] = snap.Stale
		out["observed_total"] = snap.View.Total
		if snap.Index != nil {
			hits, misses := snap.Index.CacheStats()
			out["keyword_cache_hits"] = hits
			out["keyword_cache_misses"] = misses
		}
	}
	return out
}
