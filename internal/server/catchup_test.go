package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// catchUpConfig mines batch-only, so every mine point is set by the
// trigger rule alone: the bootstrap fits exactly at the first batch and
// each later event encodes to one transaction.
func catchUpConfig() Config {
	return Config{
		Spec:         PAISpec(),
		WindowSize:   5000,
		Bootstrap:    100,
		MineBatch:    100,
		MineInterval: time.Hour,
		QueueSize:    1024,
		Workers:      1,
	}
}

func paiEvents(t testing.TB, n int, seed int64) []Event {
	t.Helper()
	lines := paiNDJSON(t, n, seed)
	events := make([]Event, len(lines))
	for i, l := range lines {
		if err := json.Unmarshal(l, &events[i]); err != nil {
			t.Fatal(err)
		}
	}
	return events
}

func enqueueAll(t *testing.T, s *Server, events []Event) {
	t.Helper()
	for _, ev := range events {
		if err := s.Enqueue(ev); err != nil {
			t.Fatal(err)
		}
	}
}

// awaitSeq waits until a snapshot at or past seq is published and returns
// it, so a mine at the wrong point fails on its Total instead of timing out.
func awaitSeq(t *testing.T, s *Server, seq int64) *Snapshot {
	t.Helper()
	var snap *Snapshot
	waitFor(t, "snapshot seq", func() bool {
		snap = s.Snapshot()
		return snap != nil && snap.Seq >= seq
	})
	return snap
}

func assertMine(t *testing.T, s *Server, seq int64, total, txns int) {
	t.Helper()
	snap := awaitSeq(t, s, seq)
	if snap.Seq != seq || snap.View.Total != total {
		t.Fatalf("snapshot seq=%d total=%d, want seq=%d total=%d", snap.Seq, snap.View.Total, seq, total)
	}
	// The publish counter is bumped just after the snapshot swap.
	waitFor(t, "mine count", func() bool { return s.metrics.mineCount.Load() >= seq })
	m := s.Metrics()
	if got := m["mine_count"].(int64); got != seq {
		t.Errorf("mine_count = %d, want %d", got, seq)
	}
	if got := m["last_mine_txns"].(int64); got != int64(txns) {
		t.Errorf("last_mine_txns = %d, want %d", got, txns)
	}
}

// TestCatchUpFoldsQueuedBatches: while the first mine is held open, k
// whole batches plus r events queue up. Exactly one further mine takes the
// k batches together, and the r leftover events wait for the next full
// batch (which mines at MineBatch again) or the drain.
func TestCatchUpFoldsQueuedBatches(t *testing.T) {
	const k, r = 3, 40
	cfg := catchUpConfig()
	s, _ := newTestServer(t, cfg)
	events := paiEvents(t, 1000, 31)

	entered := make(chan struct{})
	release := make(chan struct{})
	var first atomic.Bool
	installMineHook(t, func() {
		if first.CompareAndSwap(false, true) {
			close(entered)
			<-release
		}
	})

	next := 0
	post := func(n int) {
		enqueueAll(t, s, events[next:next+n])
		next += n
	}
	post(cfg.MineBatch)
	<-entered
	post(k*cfg.MineBatch + r)
	close(release)

	assertMine(t, s, 1, cfg.MineBatch, cfg.MineBatch)
	assertMine(t, s, 2, (k+1)*cfg.MineBatch, k*cfg.MineBatch)

	// The r leftovers did not mine on their own: the next mine lands on
	// the following batch boundary, and the threshold is one batch again.
	post(cfg.MineBatch - r)
	assertMine(t, s, 3, (k+2)*cfg.MineBatch, cfg.MineBatch)

	// A tail shorter than a batch waits for the drain.
	post(r)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Stop(ctx); err != nil {
		t.Fatal(err)
	}
	assertMine(t, s, 4, (k+2)*cfg.MineBatch+r, r)
}

// TestCatchUpKeepsUpMinesEveryBatch: a loop that keeps up (no backlog of a
// whole batch when a mine lands) mines at every batch, exactly as before
// batches could fold.
func TestCatchUpKeepsUpMinesEveryBatch(t *testing.T) {
	cfg := catchUpConfig()
	s, _ := newTestServer(t, cfg)
	events := paiEvents(t, 600, 37)
	for i := 1; i*cfg.MineBatch <= len(events); i++ {
		enqueueAll(t, s, events[(i-1)*cfg.MineBatch:i*cfg.MineBatch])
		assertMine(t, s, int64(i), i*cfg.MineBatch, cfg.MineBatch)
		if total := s.Snapshot().View.Total; total%cfg.MineBatch != 0 {
			t.Fatalf("mine at %d events, not a multiple of MineBatch %d", total, cfg.MineBatch)
		}
	}
}

// BenchmarkServerCatchUp times a fresh server from one 5000-event burst to
// a snapshot that covers all of it, and reports how many mines that took.
func BenchmarkServerCatchUp(b *testing.B) {
	lines := paiNDJSON(b, 5000, 7)
	var body bytes.Buffer
	for _, l := range lines {
		body.Write(l)
		body.WriteByte('\n')
	}
	cfg := Config{
		Spec:         PAISpec(),
		WindowSize:   5000,
		MineBatch:    1000,
		MineInterval: time.Hour,
	}
	var mines int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		req := httptest.NewRequest("POST", "/v1/jobs", bytes.NewReader(body.Bytes()))
		req.Header.Set("Content-Type", "application/x-ndjson")
		rec := httptest.NewRecorder()
		b.StartTimer()
		s.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("ingest: %d %s", rec.Code, rec.Body.String())
		}
		snap := s.Snapshot()
		for ; snap == nil || snap.View.Total < len(lines); snap = s.Snapshot() {
			time.Sleep(100 * time.Microsecond)
		}
		b.StopTimer()
		mines += snap.Seq // a fresh server numbers its publishes from 1
		if err := s.Stop(context.Background()); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(mines)/float64(b.N), "mines/op")
}
