package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultinject"
)

// fetchRules GETs a /v1/rules URL and normalizes it for crash-equivalence
// comparison: mined_at always differs, and seq legitimately differs between
// an interrupted run (which published extra snapshots around the crash) and
// the uninterrupted oracle, but the rule content must be identical.
func fetchRules(t *testing.T, url string) []byte {
	t.Helper()
	var body map[string]any
	if code := getJSON(t, url, &body); code != http.StatusOK {
		t.Fatalf("GET %s = %d", url, code)
	}
	delete(body, "mined_at")
	delete(body, "seq")
	out, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// postUntilFailure ingests lines in order, retrying 429 backpressure, and
// stops at the first hard failure (the injected crash surfacing as a WAL
// 503 or a connection error). Unlike postChunks it treats failure as data,
// not a test bug.
func postUntilFailure(t *testing.T, url string, lines [][]byte, chunk int) {
	t.Helper()
	for start := 0; start < len(lines); {
		end := start + chunk
		if end > len(lines) {
			end = len(lines)
		}
		resp, err := http.Post(url+"/v1/jobs", "application/x-ndjson", ndjsonBody(lines[start:end]))
		if err != nil {
			return // server side of the connection died mid-crash
		}
		var res ingestResult
		decErr := json.NewDecoder(resp.Body).Decode(&res)
		resp.Body.Close()
		if decErr != nil {
			return
		}
		switch resp.StatusCode {
		case http.StatusOK:
			start = end
		case http.StatusTooManyRequests:
			start += res.DroppedAtLine - 1
			time.Sleep(2 * time.Millisecond)
		default:
			return // 503: the WAL is gone, nothing more will be accepted
		}
	}
}

// chaosConfig is the shared shape for the crash-equivalence runs: small
// window, eager checkpoints, fsync=always (the zero-loss configuration the
// equivalence claim is made for), mining only on batch boundaries so the
// transcript is deterministic in the accepted-event order.
func chaosConfig(stateDir, walDir string, fs faultinject.FS) Config {
	return Config{
		Spec:            PAISpec(),
		WindowSize:      200,
		Bootstrap:       50,
		MineBatch:       100,
		MineInterval:    time.Hour,
		QueueSize:       64,
		Workers:         1,
		StateDir:        stateDir,
		WALDir:          walDir,
		Fsync:           "always",
		WALSegmentBytes: 16 << 10,
		FS:              fs,
	}
}

// oracleRules runs the full stream through an uninterrupted server and
// returns the drained /v1/rules — the ground truth every crashed-and-
// recovered run must reproduce.
func oracleRules(t *testing.T, lines [][]byte) []byte {
	t.Helper()
	cfg := chaosConfig("", "", nil)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	postChunks(t, ts.URL, lines, 50)
	stopServer(t, s)
	out := fetchRules(t, ts.URL+"/v1/rules?limit=500")
	ts.Close()
	return out
}

// TestCrashEquivalenceRandomized is the chaos acceptance test for the WAL +
// checkpoint + replay stack: 25 seeded runs each crash the filesystem at a
// random operation — landing inside a WAL append, a segment rotation, a
// checkpoint write, or the rename chain — then restart on the real
// filesystem, resume the stream from the server's reported applied
// watermark, and require /v1/rules identical to the uninterrupted oracle.
func TestCrashEquivalenceRandomized(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite is not short")
	}
	const jobs = 400
	lines := paiNDJSON(t, jobs, 11)
	want := oracleRules(t, lines)

	// Sizing run: count how many filesystem operations a clean durable run
	// performs, so the per-seed crash point can land anywhere in that range.
	counter := faultinject.NewInjector(nil)
	{
		dir := t.TempDir()
		cfg := chaosConfig(filepath.Join(dir, "state"), filepath.Join(dir, "wal"), counter)
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		postChunks(t, ts.URL, lines, 50)
		stopServer(t, s)
		ts.Close()
	}
	totalOps := counter.Ops()
	if totalOps < 100 {
		t.Fatalf("sizing run counted only %d fs ops; injector not wired through?", totalOps)
	}

	rng := rand.New(rand.NewSource(1))
	for seed := 0; seed < 25; seed++ {
		crashOp := 1 + int64(rng.Intn(int(totalOps)))
		t.Run("", func(t *testing.T) {
			dir := t.TempDir()
			stateDir, walDir := filepath.Join(dir, "state"), filepath.Join(dir, "wal")

			inj := faultinject.NewInjector(nil)
			inj.FailAt(crashOp, faultinject.Crash)
			s1, err := New(chaosConfig(stateDir, walDir, inj))
			if err != nil {
				// The crash landed inside the very first WAL open: nothing
				// durable exists yet, a cold restart below must still work.
				s1 = nil
			}
			var applied uint64
			if s1 != nil {
				ts1 := httptest.NewServer(s1.Handler())
				postUntilFailure(t, ts1.URL, lines, 50)
				s1.kill()
				ts1.Close()
			}

			// Restart on the healthy filesystem: checkpoint (newest or
			// fallback generation) + WAL tail replay.
			s2, err := New(chaosConfig(stateDir, walDir, nil))
			if err != nil {
				t.Fatalf("crash at op %d: restart failed: %v", crashOp, err)
			}
			ts2 := httptest.NewServer(s2.Handler())
			// Everything at or below the applied watermark is durable and
			// replayed; the client re-sends the rest. fsync=always means
			// no acknowledged record can be missing from that watermark.
			applied = s2.LastAppliedSeq()
			if applied > uint64(len(lines)) {
				t.Fatalf("crash at op %d: applied watermark %d beyond the %d-line stream", crashOp, applied, len(lines))
			}
			postChunks(t, ts2.URL, lines[applied:], 50)
			stopServer(t, s2)
			got := fetchRules(t, ts2.URL+"/v1/rules?limit=500")
			ts2.Close()
			if !bytes.Equal(want, got) {
				t.Errorf("crash at op %d of ~%d: recovered rules differ from oracle:\n oracle:    %.300s\n recovered: %.300s",
					crashOp, totalOps, want, got)
			}
		})
	}
}

// TestWALReplayAfterKill: a WAL-only server (no checkpoint) killed without
// drain must rebuild its exact state by replaying the log from the start.
func TestWALReplayAfterKill(t *testing.T) {
	lines := paiNDJSON(t, 300, 13)
	dir := t.TempDir()
	walDir := filepath.Join(dir, "wal")

	cfg := chaosConfig("", walDir, nil)
	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	postChunks(t, ts1.URL, lines, 50)
	waitForSeq(t, s1, 3, 300) // batch mines at 100, 200, 300
	want := fetchRules(t, ts1.URL+"/v1/rules?limit=500")
	s1.kill() // no drain, no final mine: the WAL is the only survivor
	ts1.Close()

	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	defer stopServer(t, s2)
	// Without a checkpoint the seq counter restarts at 1; the post-replay
	// mine covers the full 300-event history.
	waitForSeq(t, s2, 1, 300)
	got := fetchRules(t, ts2.URL+"/v1/rules?limit=500")
	if !bytes.Equal(want, got) {
		t.Errorf("replayed rules differ:\n before: %.300s\n after:  %.300s", want, got)
	}
	var m map[string]any
	getJSON(t, ts2.URL+"/metrics", &m)
	if got := m["wal_replayed"].(float64); got != 300 {
		t.Errorf("wal_replayed = %v, want 300", got)
	}
	if got := m["wal_applied_seq"].(float64); got != 300 {
		t.Errorf("wal_applied_seq = %v, want 300", got)
	}
}

// TestCSVInvalidUTF8ReplaysSameRules: CSV strings with invalid UTF-8 are
// coerced at decode, so the live loop mines the items a WAL replay after a
// kill mines. Uncoerced, "a\xffb" and "a\xfeb" are two users live but one
// after the record's trip through JSON, and the rules differ.
func TestCSVInvalidUTF8ReplaysSameRules(t *testing.T) {
	const rows = 210
	var body strings.Builder
	body.WriteString("user,status,gpu\n")
	for i := 0; i < rows; i++ {
		user, status := []string{"a\xffb", "a\xfeb", "c"}[i%3], "failed"
		if user == "c" {
			status = "ok"
		}
		fmt.Fprintf(&body, "%s,%s,%s\n", user, status, []string{"t4", "v100"}[i%2])
	}
	cfg := Config{
		WindowSize:   rows,
		Bootstrap:    50,
		MineBatch:    rows,
		MineInterval: time.Hour,
		WALDir:       filepath.Join(t.TempDir(), "wal"),
		Fsync:        "always",
	}
	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	resp, err := http.Post(ts1.URL+"/v1/jobs", "text/csv", strings.NewReader(body.String()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}
	waitForSeq(t, s1, 1, rows)
	want := fetchRules(t, ts1.URL+"/v1/rules?limit=500")
	s1.kill()
	ts1.Close()

	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	defer stopServer(t, s2)
	waitForSeq(t, s2, 1, rows)
	got := fetchRules(t, ts2.URL+"/v1/rules?limit=500")
	if !bytes.Equal(want, got) {
		t.Errorf("replayed rules differ from the uninterrupted server's:\n before: %.400s\n after:  %.400s", want, got)
	}
	if !strings.Contains(string(want), "user=a\ufffdb") {
		t.Errorf("rules never name the coerced user: %.400s", want)
	}
}

// TestWALTornTailTruncatedByServer: garbage appended to the live segment
// (a torn final write) is silently dropped at restart; the acknowledged
// prefix replays intact and new ingest continues on the repaired tail.
func TestWALTornTailTruncatedByServer(t *testing.T) {
	lines := paiNDJSON(t, 250, 17)
	dir := t.TempDir()
	walDir := filepath.Join(dir, "wal")
	cfg := chaosConfig("", walDir, nil)

	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	postChunks(t, ts1.URL, lines[:200], 50)
	waitForSeq(t, s1, 2, 200)
	want := fetchRules(t, ts1.URL+"/v1/rules?limit=500")
	s1.kill()
	ts1.Close()

	// Tear the tail: a frame header promising 64 bytes with only 6 present,
	// exactly what a crash mid-write leaves behind.
	segs, err := os.ReadDir(walDir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segments: %v", err)
	}
	tail := filepath.Join(walDir, segs[len(segs)-1].Name())
	f, err := os.OpenFile(tail, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{64, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef, 1, 2}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := New(cfg)
	if err != nil {
		t.Fatalf("torn tail must not fail startup: %v", err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	waitForSeq(t, s2, 1, 200)
	if got := fetchRules(t, ts2.URL+"/v1/rules?limit=500"); !bytes.Equal(want, got) {
		t.Errorf("rules after torn-tail recovery differ:\n before: %.300s\n after:  %.300s", want, got)
	}
	// The repaired tail keeps accepting: the remaining stream appends at
	// the truncation point and survives one more restart.
	postChunks(t, ts2.URL, lines[200:], 50)
	stopServer(t, s2)
	s3, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := s3.LastAppliedSeq(); got != 250 {
		t.Errorf("applied seq after re-restart = %d, want 250", got)
	}
	s3.kill()
}

// TestWALSegmentGC: once a checkpoint covers them, sealed WAL segments are
// removed — the log's disk footprint is bounded by checkpoint cadence, not
// by stream length — and recovery off the truncated log still works.
func TestWALSegmentGC(t *testing.T) {
	lines := paiNDJSON(t, 300, 19)
	dir := t.TempDir()
	stateDir, walDir := filepath.Join(dir, "state"), filepath.Join(dir, "wal")
	cfg := chaosConfig(stateDir, walDir, nil)
	cfg.WALSegmentBytes = 2 << 10 // rotate every handful of events

	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	postChunks(t, ts1.URL, lines, 50)
	stopServer(t, s1)
	ts1.Close()
	var m map[string]any
	// The handler keeps answering after Stop; metrics are read off the
	// stopped server.
	rec := httptest.NewRecorder()
	s1.handleMetrics(rec, nil)
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	if got := m["wal_segments_removed"].(float64); got == 0 {
		t.Error("no WAL segments were garbage-collected behind checkpoints")
	}
	segs, err := os.ReadDir(walDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) > 3 {
		t.Errorf("%d WAL segments survive a fully checkpointed run; GC not keeping up", len(segs))
	}

	// The truncated log plus the checkpoint still restore cleanly.
	s2, err := New(cfg)
	if err != nil {
		t.Fatalf("restart off GC'd WAL: %v", err)
	}
	if got := s2.LastAppliedSeq(); got != 300 {
		t.Errorf("applied seq = %d, want 300", got)
	}
	s2.kill()
}

// installMineHook wires a test hook into the mining goroutine and removes
// it at cleanup.
func installMineHook(t *testing.T, hook func()) {
	t.Helper()
	mineHook.Store(&hook)
	t.Cleanup(func() { mineHook.Store(nil) })
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestMinePanicRecovered: a panicking mine must not kill the daemon — the
// loop recovers, counts it, republishes the last good snapshot flagged
// stale, reports degraded on /healthz, and heals on the next clean mine.
func TestMinePanicRecovered(t *testing.T) {
	lines := paiNDJSON(t, 300, 23)
	cfg := chaosConfig("", "", nil)
	s, ts := newTestServer(t, cfg)

	postChunks(t, ts.URL, lines[:100], 50)
	waitForSeq(t, s, 1, 100) // healthy snapshot to fall back on

	var armed atomic.Bool
	armed.Store(true)
	installMineHook(t, func() {
		if armed.CompareAndSwap(true, false) {
			panic("injected mine panic")
		}
	})
	postChunks(t, ts.URL, lines[100:200], 50)
	waitFor(t, "mine panic", func() bool { return s.metrics.minePanics.Load() == 1 })

	var health map[string]any
	if code := getJSON(t, ts.URL+"/healthz", &health); code != http.StatusOK {
		t.Fatalf("degraded healthz = %d, want 200 (still serving)", code)
	}
	if health["status"] != "degraded" || health["degraded_reason"] != "mine_panic" {
		t.Errorf("healthz during degradation = %v", health)
	}
	var rules map[string]any
	getJSON(t, ts.URL+"/v1/rules", &rules)
	if rules["stale"] != true {
		t.Errorf("republished snapshot not marked stale: %v", rules)
	}
	if rules["seq"].(float64) != 1 {
		t.Errorf("stale republish changed seq: %v", rules["seq"])
	}

	// The next batch mines cleanly: degradation clears, seq advances.
	postChunks(t, ts.URL, lines[200:300], 50)
	waitForSeq(t, s, 2, 300)
	health = nil
	getJSON(t, ts.URL+"/healthz", &health)
	if health["status"] != "ok" {
		t.Errorf("healthz after recovery = %v", health)
	}
	rules = nil // decoding into a reused map merges keys; start clean
	getJSON(t, ts.URL+"/v1/rules", &rules)
	if stale, ok := rules["stale"]; ok && stale == true {
		t.Error("snapshot still stale after a clean mine")
	}
}

// TestMineWatchdogAbandonsHungMine: a mine that never returns is abandoned
// at MineTimeout — the loop keeps consuming, serves the previous snapshot
// as stale, and the stranded goroutine (which holds only its own window
// capture) finishes into the void without corrupting anything.
func TestMineWatchdogAbandonsHungMine(t *testing.T) {
	lines := paiNDJSON(t, 300, 29)
	clock := faultinject.NewManualClock(time.Unix(0, 0))
	cfg := chaosConfig("", "", nil)
	cfg.MineTimeout = 5 * time.Second
	cfg.Clock = clock
	s, ts := newTestServer(t, cfg)

	postChunks(t, ts.URL, lines[:100], 50)
	waitForSeq(t, s, 1, 100)

	release := make(chan struct{})
	var armed atomic.Bool
	armed.Store(true)
	installMineHook(t, func() {
		if armed.CompareAndSwap(true, false) {
			<-release
		}
	})
	defer close(release)
	postChunks(t, ts.URL, lines[100:200], 50)
	// Drive the manual clock until the watchdog's After registers and
	// fires; advancing before the loop arms the timer is a no-op.
	waitFor(t, "watchdog timeout", func() bool {
		clock.Advance(5 * time.Second)
		return s.metrics.mineTimeouts.Load() == 1
	})

	var health map[string]any
	getJSON(t, ts.URL+"/healthz", &health)
	if health["status"] != "degraded" || health["degraded_reason"] != "mine_timeout" {
		t.Errorf("healthz during hung mine = %v", health)
	}
	var rules map[string]any
	getJSON(t, ts.URL+"/v1/rules", &rules)
	if rules["stale"] != true {
		t.Errorf("snapshot not stale during hung mine: %v", rules)
	}

	// The loop survived: the next batch mines on a fresh view and heals.
	postChunks(t, ts.URL, lines[200:300], 50)
	waitForSeq(t, s, 2, 300)
	health = nil
	getJSON(t, ts.URL+"/healthz", &health)
	if health["status"] != "ok" {
		t.Errorf("healthz after watchdog recovery = %v", health)
	}
}

// TestCheckpointGenerationFallback: when the newest checkpoint generation
// is damaged, startup falls back to the previous one instead of refusing —
// and only when every generation is damaged does New error.
func TestCheckpointGenerationFallback(t *testing.T) {
	lines := paiNDJSON(t, 150, 31)
	dir := t.TempDir()
	cfg := chaosConfig(dir, "", nil)
	cfg.MineBatch = 50
	cfg.Bootstrap = 20

	s1, ts1 := func() (*Server, *httptest.Server) {
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s, httptest.NewServer(s.Handler())
	}()
	postChunks(t, ts1.URL, lines, 50)
	stopServer(t, s1)
	want := fetchRules(t, ts1.URL+"/v1/rules?limit=500")
	ts1.Close()

	for _, name := range []string{checkpointFileName, checkpointPrevFileName} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("generation %s missing after run: %v", name, err)
		}
	}
	// Damage the newest generation: flip bytes mid-file so the CRC gate
	// rejects it.
	newest := filepath.Join(dir, checkpointFileName)
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	copy(data[len(data)/2:], []byte("XXXXXXXX"))
	if err := os.WriteFile(newest, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := New(cfg)
	if err != nil {
		t.Fatalf("fallback to previous generation failed: %v", err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	waitFor(t, "restored snapshot", func() bool { return s2.Snapshot() != nil })
	got := fetchRules(t, ts2.URL+"/v1/rules?limit=500")
	var m map[string]any
	getJSON(t, ts2.URL+"/metrics", &m)
	stopServer(t, s2)
	ts2.Close()
	if m["checkpoint_fallbacks"].(float64) != 1 {
		t.Errorf("checkpoint_fallbacks = %v, want 1", m["checkpoint_fallbacks"])
	}
	if m["restored"].(float64) != 1 {
		t.Errorf("restored = %v, want 1", m["restored"])
	}
	// The drained final checkpoint and its predecessor hold the same
	// 150-event state, so the fallback serves identical rules.
	if !bytes.Equal(want, got) {
		t.Errorf("fallback rules differ:\n newest: %.300s\n prev:   %.300s", want, got)
	}

	// Both generations damaged: now startup must refuse loudly. (The
	// drained s2 rewrote the newest generation; damage both files.)
	for _, name := range []string{checkpointFileName, checkpointPrevFileName} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("{not a checkpoint"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "checkpoint") {
		t.Fatalf("every generation damaged: want checkpoint error, got %v", err)
	}
}
