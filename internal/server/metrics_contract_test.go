package server

import (
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultinject"
)

// The /metrics JSON contract: every key Server.Metrics reports, with the Go
// type of its value. perfbench and the tests type-assert these values
// (srv.Metrics()["queue_depth"].(int), m["mine_count"].(int64)), so a type
// change is a contract change.
var (
	contractBase = map[string]string{
		"uptime_s":             "float64",
		"ingest_accepted":      "int64",
		"ingest_rejected":      "int64",
		"ingest_throttled":     "int64",
		"encode_errors":        "int64",
		"encode_panics":        "int64",
		"queue_depth":          "int",
		"queue_capacity":       "int",
		"window_capacity":      "int",
		"mine_count":           "int64",
		"last_mine_ms":         "float64",
		"last_mine_txns":       "int64",
		"mine_panics_total":    "int64",
		"mine_timeouts_total":  "int64",
		"degraded":             "bool",
		"watch_subscribers":    "int",
		"watch_events_total":   "int64",
		"checkpoints":          "int64",
		"checkpoint_errors":    "int64",
		"checkpoint_fallbacks": "int64",
		"restored":             "int64",
		"snapshot_seq":         "int64",
		"window_len":           "int",
		"rules":                "int",
		"snapshot_age_s":       "float64",
	}
	// contractSnapshot holds the keys a published snapshot adds.
	contractSnapshot = map[string]string{
		"snapshot_stale":       "bool",
		"observed_total":       "int",
		"keyword_cache_hits":   "int64",
		"keyword_cache_misses": "int64",
	}
	// contractWAL holds the keys a configured WAL adds.
	contractWAL = map[string]string{
		"wal_appends":          "int64",
		"wal_errors":           "int64",
		"wal_replayed":         "int64",
		"wal_corrupt_frames":   "int64",
		"wal_segments_removed": "int64",
		"wal_applied_seq":      "uint64",
	}
	// contractDegraded holds the key a degraded server adds.
	contractDegraded = map[string]string{"degraded_reason": "string"}
)

func unionContract(parts ...map[string]string) map[string]string {
	out := map[string]string{}
	for _, p := range parts {
		for k, v := range p {
			out[k] = v
		}
	}
	return out
}

func checkContract(t *testing.T, state string, m map[string]any, want map[string]string) {
	t.Helper()
	got := make(map[string]string, len(m))
	for k, v := range m {
		got[k] = fmt.Sprintf("%T", v)
	}
	var diffs []string
	for k, w := range want {
		if g, ok := got[k]; !ok {
			diffs = append(diffs, fmt.Sprintf("missing %s (%s)", k, w))
		} else if g != w {
			diffs = append(diffs, fmt.Sprintf("%s is %s, want %s", k, g, w))
		}
	}
	for k, g := range got {
		if _, ok := want[k]; !ok {
			diffs = append(diffs, fmt.Sprintf("unexpected %s (%s)", k, g))
		}
	}
	sort.Strings(diffs)
	for _, d := range diffs {
		t.Errorf("%s: %s", state, d)
	}
}

// TestMetricsJSONContract pins the exact key set and value types of
// Server.Metrics in four states: fresh, after a mine, with a WAL, and
// degraded by a panicking mine.
func TestMetricsJSONContract(t *testing.T) {
	events := paiEvents(t, 200, 31)

	t.Run("fresh", func(t *testing.T) {
		s, _ := newTestServer(t, catchUpConfig())
		checkContract(t, "fresh", s.Metrics(), contractBase)
	})

	t.Run("mined", func(t *testing.T) {
		s, _ := newTestServer(t, catchUpConfig())
		enqueueAll(t, s, events[:100])
		awaitSeq(t, s, 1)
		checkContract(t, "mined", s.Metrics(), unionContract(contractBase, contractSnapshot))
	})

	t.Run("wal", func(t *testing.T) {
		cfg := catchUpConfig()
		dir := t.TempDir()
		cfg.StateDir, cfg.WALDir = filepath.Join(dir, "state"), filepath.Join(dir, "wal")
		s, _ := newTestServer(t, cfg)
		checkContract(t, "wal fresh", s.Metrics(), unionContract(contractBase, contractWAL))
		enqueueAll(t, s, events[:100])
		awaitSeq(t, s, 1)
		checkContract(t, "wal mined", s.Metrics(), unionContract(contractBase, contractSnapshot, contractWAL))
	})

	t.Run("degraded", func(t *testing.T) {
		s, _ := newTestServer(t, catchUpConfig())
		enqueueAll(t, s, events[:100])
		awaitSeq(t, s, 1)
		installMineHook(t, func() { panic("injected mine panic") })
		enqueueAll(t, s, events[100:200])
		waitFor(t, "mine panic", func() bool { return s.metrics.minePanics.Load() == 1 })
		m := s.Metrics()
		checkContract(t, "degraded", m, unionContract(contractBase, contractSnapshot, contractDegraded))
		if m["degraded_reason"] != "mine_panic" || m["degraded"] != true || m["snapshot_stale"] != true {
			t.Errorf("degraded metrics = reason %v, degraded %v, stale %v", m["degraded_reason"], m["degraded"], m["snapshot_stale"])
		}
	})
}

// TestMetricsSeqMatchesMineDuration scrapes /metrics while mines publish and
// requires every scrape to pair snapshot_seq with that snapshot's own
// last_mine_ms. A mine hook advances the manual clock by k ms inside the
// k-th mine, so snapshot k was mined in exactly k ms.
func TestMetricsSeqMatchesMineDuration(t *testing.T) {
	const mines = 150
	clock := faultinject.NewManualClock(time.Unix(1000, 0))
	cfg := catchUpConfig()
	cfg.WindowSize, cfg.Bootstrap, cfg.MineBatch = 200, 20, 20
	cfg.Clock = clock
	cfg.MinSupport, cfg.MaxLen = 0.3, 3
	s, _ := newTestServer(t, cfg)
	var calls atomic.Int64
	installMineHook(t, func() {
		clock.Advance(time.Duration(calls.Add(1)) * time.Millisecond)
	})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var scrapes, torn atomic.Int64
	var firstTorn atomic.Value
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			m := s.Metrics()
			seq, ms := m["snapshot_seq"].(int64), m["last_mine_ms"].(float64)
			scrapes.Add(1)
			if ms != float64(seq) {
				torn.Add(1)
				firstTorn.CompareAndSwap(nil, fmt.Sprintf("snapshot_seq %d with last_mine_ms %v", seq, ms))
			}
		}
	}()

	events := paiEvents(t, mines*cfg.MineBatch, 37)
	for k := 0; k < mines; k++ {
		enqueueAll(t, s, events[k*cfg.MineBatch:(k+1)*cfg.MineBatch])
		awaitSeq(t, s, int64(k+1))
	}
	close(stop)
	wg.Wait()
	if n := torn.Load(); n > 0 {
		t.Fatalf("%d of %d scrapes paired a snapshot with another mine's duration; first: %v", n, scrapes.Load(), firstTorn.Load())
	}
}
