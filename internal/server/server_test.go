package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/trace"
)

// paiNDJSON renders n generated PAI jobs (scheduler ⋈ node) as NDJSON lines.
func paiNDJSON(t testing.TB, n int, seed int64) [][]byte {
	t.Helper()
	tr, err := trace.GeneratePAI(trace.Config{Jobs: n, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	joined, err := tr.Scheduler.InnerJoin(tr.Node, "job_id", "job_id")
	if err != nil {
		t.Fatal(err)
	}
	events := FrameEvents(joined)
	lines := make([][]byte, len(events))
	for i, ev := range events {
		data, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		lines[i] = data
	}
	return lines
}

func ndjsonBody(lines [][]byte) *bytes.Buffer {
	var buf bytes.Buffer
	for _, l := range lines {
		buf.Write(l)
		buf.WriteByte('\n')
	}
	return &buf
}

// postChunks ingests lines in chunks, retrying on 429 backpressure, and
// returns the total accepted.
func postChunks(t testing.TB, url string, lines [][]byte, chunk int) int {
	t.Helper()
	accepted := 0
	for start := 0; start < len(lines); {
		end := start + chunk
		if end > len(lines) {
			end = len(lines)
		}
		resp, err := http.Post(url+"/v1/jobs", "application/x-ndjson", ndjsonBody(lines[start:end]))
		if err != nil {
			t.Fatal(err)
		}
		var res ingestResult
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		accepted += res.Accepted
		switch resp.StatusCode {
		case http.StatusOK:
			if res.Rejected > 0 {
				t.Fatalf("ingest rejected %d lines: %+v", res.Rejected, res.Errors)
			}
			start = end
		case http.StatusTooManyRequests:
			// Resume from the dropped line after a short backoff.
			start += res.DroppedAtLine - 1
			time.Sleep(20 * time.Millisecond)
		default:
			t.Fatalf("ingest status %d: %+v", resp.StatusCode, res)
		}
	}
	return accepted
}

func getJSON(t testing.TB, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

// TestEndToEndPAI is the acceptance path: ingest >10k generated PAI jobs
// over HTTP while concurrently querying, then assert that the failure
// keyword analysis comes back as pruned JSON cause rules.
func TestEndToEndPAI(t *testing.T) {
	const jobs = 12000
	lines := paiNDJSON(t, jobs, 7)
	s, err := New(Config{
		Spec:         PAISpec(),
		WindowSize:   5000,
		Bootstrap:    500,
		MineBatch:    2000,
		MineInterval: 100 * time.Millisecond,
		QueueSize:    4096,
		KeepItems:    []string{"status=failed", "sm_util=0%"},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Query continuously while ingest runs: reads must never block on
	// mining and must always see a consistent snapshot.
	stopPolling := make(chan struct{})
	var pollWG sync.WaitGroup
	pollWG.Add(1)
	go func() {
		defer pollWG.Done()
		for {
			select {
			case <-stopPolling:
				return
			default:
			}
			var resp rulesResponse
			code := getJSON(t, ts.URL+"/v1/rules?keyword=failed&kind=cause", &resp)
			if code != http.StatusOK && code != http.StatusServiceUnavailable && code != http.StatusNotFound {
				t.Errorf("concurrent query status %d", code)
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()

	accepted := postChunks(t, ts.URL, lines, 2000)
	close(stopPolling)
	pollWG.Wait()
	if accepted != jobs {
		t.Fatalf("accepted %d of %d jobs", accepted, jobs)
	}

	// Wait until the loop has observed everything and published.
	deadline := time.Now().Add(30 * time.Second)
	for {
		snap := s.Snapshot()
		if snap != nil && snap.View.Total == jobs {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("snapshot never caught up: %+v", s.Snapshot())
		}
		time.Sleep(20 * time.Millisecond)
	}

	var resp rulesResponse
	if code := getJSON(t, ts.URL+"/v1/rules?keyword=failed&kind=cause", &resp); code != http.StatusOK {
		t.Fatalf("rules status %d", code)
	}
	if resp.Keyword != "status=failed" {
		t.Errorf("keyword resolved to %q", resp.Keyword)
	}
	if len(resp.Cause) == 0 {
		t.Fatal("no cause rules for status=failed")
	}
	for _, r := range resp.Cause {
		found := false
		for _, item := range r.Consequent {
			if item == "status=failed" {
				found = true
			}
		}
		if !found {
			t.Errorf("cause rule without keyword in consequent: %+v", r)
		}
		if r.Lift < 1.5 {
			t.Errorf("rule below lift threshold: %+v", r)
		}
	}
	if resp.PruneStats == nil || resp.PruneStats.Kept > resp.PruneStats.Input {
		t.Errorf("prune stats inconsistent: %+v", resp.PruneStats)
	}
	if len(resp.Characteristic) != 0 {
		t.Errorf("kind=cause leaked characteristic rules")
	}
	if resp.WindowLen != 5000 {
		t.Errorf("window len = %d, want full window", resp.WindowLen)
	}

	// Drift and metrics are live too.
	var drift driftResponse
	if code := getJSON(t, ts.URL+"/v1/drift?keyword=failed", &drift); code != http.StatusOK {
		t.Fatalf("drift status %d", code)
	}
	if drift.Jaccard < 0 || drift.Jaccard > 1 {
		t.Errorf("jaccard = %v", drift.Jaccard)
	}
	var m map[string]any
	if code := getJSON(t, ts.URL+"/metrics", &m); code != http.StatusOK {
		t.Fatalf("metrics status %d", code)
	}
	if got := m["ingest_accepted"].(float64); int(got) != jobs {
		t.Errorf("metrics ingest_accepted = %v", got)
	}
	if m["mine_count"].(float64) < 1 {
		t.Error("no mines recorded")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Stop(ctx); err != nil {
		t.Fatal(err)
	}
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Stop(ctx)
	})
	return s, ts
}

func TestQueriesBeforeFirstSnapshot(t *testing.T) {
	_, ts := newTestServer(t, Config{Spec: Spec{}, MineInterval: time.Hour})
	if code := getJSON(t, ts.URL+"/v1/rules", nil); code != http.StatusServiceUnavailable {
		t.Errorf("rules before snapshot = %d, want 503", code)
	}
	if code := getJSON(t, ts.URL+"/v1/drift", nil); code != http.StatusServiceUnavailable {
		t.Errorf("drift before snapshot = %d, want 503", code)
	}
	var health map[string]any
	if code := getJSON(t, ts.URL+"/healthz", &health); code != http.StatusOK {
		t.Errorf("healthz = %d", code)
	}
	if health["status"] != "ok" {
		t.Errorf("health = %v", health)
	}
	if code := getJSON(t, ts.URL+"/metrics", nil); code != http.StatusOK {
		t.Errorf("metrics = %d", code)
	}
}

func TestIngestValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Spec:         Spec{Numeric: []NumericSpec{{Field: "util"}}},
		Bootstrap:    2,
		MineInterval: time.Hour,
	})
	body := strings.Join([]string{
		`{"user":"u1","util":5}`,
		`not json at all`,
		`{"user":"u2","surprise":1.5}`,
		`{"user":"u3","util":7}`,
	}, "\n")
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var res ingestResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if res.Accepted != 2 || res.Rejected != 2 {
		t.Errorf("accepted/rejected = %d/%d, want 2/2", res.Accepted, res.Rejected)
	}
	if len(res.Errors) != 2 || res.Errors[0].Line != 2 || res.Errors[1].Line != 3 {
		t.Errorf("errors = %+v", res.Errors)
	}
}

func TestIngestCSV(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Spec: Spec{
			Numeric: []NumericSpec{{Field: "util"}},
			Bools:   []string{"retried"},
		},
		Bootstrap:    4,
		MineBatch:    4,
		MineInterval: 50 * time.Millisecond,
	})
	csvBody := "user,util,retried\nu1,10,true\nu2,20,false\nu3,30,true\nu4,40,false\n"
	resp, err := http.Post(ts.URL+"/v1/jobs", "text/csv", strings.NewReader(csvBody))
	if err != nil {
		t.Fatal(err)
	}
	var res ingestResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if res.Accepted != 4 || res.Rejected != 0 {
		t.Fatalf("CSV ingest = %+v", res)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.Snapshot() == nil {
		if time.Now().After(deadline) {
			t.Fatal("no snapshot from CSV ingest")
		}
		time.Sleep(10 * time.Millisecond)
	}
	view := s.Snapshot().View
	if view.Total != 4 {
		t.Errorf("observed %d jobs", view.Total)
	}
	if _, ok := view.Catalog.Lookup("retried"); !ok {
		t.Error("bool CSV field did not intern a presence item")
	}
	// CSV bad row: numeric parse failure is a per-line error.
	resp, err = http.Post(ts.URL+"/v1/jobs", "text/csv", strings.NewReader("user,util\nu5,notanumber\n"))
	if err != nil {
		t.Fatal(err)
	}
	res = ingestResult{}
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if res.Rejected != 1 || res.Accepted != 0 {
		t.Errorf("bad CSV row = %+v", res)
	}
}

// TestIngestRejectsNonFiniteNumbers: CSV smuggles NaN/±Inf through
// ParseFloat where JSON cannot; such values would poison bin fitting and
// cannot be framed into the WAL, so they must be per-line rejections.
func TestIngestRejectsNonFiniteNumbers(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Spec:         Spec{Numeric: []NumericSpec{{Field: "util"}}},
		MineInterval: time.Hour,
	})
	resp, err := http.Post(ts.URL+"/v1/jobs", "text/csv", strings.NewReader("util\nNaN\n+Inf\n-Inf\n5\n"))
	if err != nil {
		t.Fatal(err)
	}
	var res ingestResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if res.Accepted != 1 || res.Rejected != 3 {
		t.Errorf("non-finite ingest = %+v", res)
	}
}

// TestBackpressure drives handleIngest against a server whose loop is not
// running, so the queue deterministically fills and the handler must 429.
func TestBackpressure(t *testing.T) {
	s := &Server{
		cfg:   Config{}.withDefaults(),
		idx:   newSpecIndex(Spec{}),
		queue: make(chan queued, 2),
		done:  make(chan struct{}),
	}
	body := "{\"a\":\"1\"}\n{\"a\":\"2\"}\n{\"a\":\"3\"}\n{\"a\":\"4\"}\n"
	req := httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(body))
	rec := httptest.NewRecorder()
	s.handleIngest(rec, req)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", rec.Code)
	}
	var res ingestResult
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.Accepted != 2 || res.DroppedAtLine != 3 {
		t.Errorf("backpressure result = %+v", res)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if s.metrics.throttled.Load() != 1 {
		t.Errorf("throttled counter = %d", s.metrics.throttled.Load())
	}
}

// TestBackpressureCSV: the CSV ingest path must carry the same 429
// contract as NDJSON — Retry-After derived from the mine cadence, and
// dropped_at_line pointing at the first unread row so a client can resume.
func TestBackpressureCSV(t *testing.T) {
	s := &Server{
		cfg:   Config{MineInterval: 3 * time.Second}.withDefaults(),
		idx:   newSpecIndex(Spec{}),
		queue: make(chan queued, 2),
		done:  make(chan struct{}),
	}
	body := "node\nn1\nn2\nn3\nn4\n"
	req := httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(body))
	req.Header.Set("Content-Type", "text/csv")
	rec := httptest.NewRecorder()
	s.handleIngest(rec, req)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", rec.Code)
	}
	if got := rec.Header().Get("Retry-After"); got != "3" {
		t.Errorf("Retry-After = %q, want %q (ceil of the 3s mine interval)", got, "3")
	}
	var res ingestResult
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	// Header is line 1; rows n1,n2 (lines 2,3) fill the queue; n3 at line
	// 4 is the first dropped row.
	if res.Accepted != 2 || res.DroppedAtLine != 4 {
		t.Errorf("CSV backpressure result = %+v", res)
	}
}

// TestEncodeGuardedCounts: a panicking encoder step is recovered, yields
// no transactions and counts in encode_panics; only an event's add counts
// a dropped event in encode_errors, a flush counts none.
func TestEncodeGuardedCounts(t *testing.T) {
	s := &Server{}
	boom := func() [][]string { panic("poison") }
	if txns := s.encodeGuarded(1, boom); txns != nil {
		t.Errorf("panicking add returned %v", txns)
	}
	if txns := s.encodeGuarded(0, boom); txns != nil {
		t.Errorf("panicking flush returned %v", txns)
	}
	if got := s.metrics.encodePanics.Load(); got != 2 {
		t.Errorf("encode_panics = %d, want 2", got)
	}
	if got := s.metrics.encodeErrors.Load(); got != 1 {
		t.Errorf("encode_errors = %d, want 1 (the add only)", got)
	}
	want := [][]string{{"a=1"}}
	if txns := s.encodeGuarded(1, func() [][]string { return want }); len(txns) != 1 || txns[0][0] != "a=1" {
		t.Errorf("clean step returned %v, want %v", txns, want)
	}
	if got := s.metrics.encodeErrors.Load(); got != 1 {
		t.Errorf("clean step moved encode_errors to %d", got)
	}
}

func TestGracefulShutdownFlushesFinalSnapshot(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Spec:         Spec{Numeric: []NumericSpec{{Field: "util"}}},
		Bootstrap:    1000, // never reached: the final flush must fit instead
		MineBatch:    100000,
		MineInterval: time.Hour,
	})
	var buf bytes.Buffer
	for i := 0; i < 100; i++ {
		fmt.Fprintf(&buf, "{\"user\":\"u%d\",\"util\":%d,\"status\":\"ok\"}\n", i%5, i)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/x-ndjson", &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if s.Snapshot() != nil {
		t.Fatal("snapshot published before any mine trigger")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Stop(ctx); err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot()
	if snap == nil {
		t.Fatal("shutdown did not flush a final snapshot")
	}
	if snap.View.Total != 100 {
		t.Errorf("final snapshot observed %d jobs, want 100", snap.View.Total)
	}
	// Ingest after shutdown is refused.
	resp, err = http.Post(ts.URL+"/v1/jobs", "application/x-ndjson", strings.NewReader("{\"a\":\"b\"}\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-shutdown ingest = %d, want 503", resp.StatusCode)
	}
	if s.Stop(context.Background()) != nil {
		t.Error("second Stop should be a no-op")
	}
}

func TestRulesHandlerParams(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Spec:         Spec{},
		Bootstrap:    10,
		MineBatch:    50,
		MineInterval: 20 * time.Millisecond,
	})
	var buf bytes.Buffer
	for i := 0; i < 50; i++ {
		if i%2 == 0 {
			buf.WriteString(`{"fw":"tf","status":"failed","user":"hot"}` + "\n")
		} else {
			buf.WriteString(`{"fw":"pt","status":"ok","user":"cold"}` + "\n")
		}
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/x-ndjson", &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	deadline := time.Now().Add(5 * time.Second)
	for s.Snapshot() == nil {
		if time.Now().After(deadline) {
			t.Fatal("no snapshot")
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, c := range []struct {
		path string
		want int
	}{
		{"/v1/rules?limit=bogus", http.StatusBadRequest},
		{"/v1/rules?kind=bogus", http.StatusBadRequest},
		{"/v1/rules?keyword=zzzznothing", http.StatusNotFound},
		{"/v1/drift?keyword=zzzznothing", http.StatusNotFound},
		{"/v1/drift?keyword=f", http.StatusBadRequest},
		// The status follows the error's kind, not its text: a keyword
		// spelled "ambiguous" that names no item is still a 404.
		{"/v1/rules?keyword=ambiguous", http.StatusNotFound},
		{"/v1/drift?keyword=ambiguous", http.StatusNotFound},
	} {
		if code := getJSON(t, ts.URL+c.path, nil); code != c.want {
			t.Errorf("%s = %d, want %d", c.path, code, c.want)
		}
	}
	// "f" is a substring of several items (fw=tf, status=failed, ...):
	// ambiguous resolution is a client error naming candidates.
	var errBody map[string]string
	if code := getJSON(t, ts.URL+"/v1/rules?keyword=f", &errBody); code != http.StatusBadRequest {
		t.Errorf("ambiguous keyword = %d (%v)", code, errBody)
	} else if !strings.Contains(errBody["error"], "ambiguous") {
		t.Errorf("ambiguous error body = %v", errBody)
	}
	// Substring resolution: "failed" uniquely names status=failed.
	var withKw rulesResponse
	if code := getJSON(t, ts.URL+"/v1/rules?keyword=failed", &withKw); code != http.StatusOK {
		t.Fatalf("keyword query = %d", code)
	}
	if withKw.Keyword != "status=failed" {
		t.Errorf("resolved keyword = %q", withKw.Keyword)
	}
	// prune=false returns at least as many rules as the pruned view.
	var unpruned rulesResponse
	if code := getJSON(t, ts.URL+"/v1/rules?keyword=failed&prune=false", &unpruned); code != http.StatusOK {
		t.Fatalf("unpruned query = %d", code)
	}
	if unpruned.PruneStats != nil {
		t.Error("prune=false should not report prune stats")
	}
	if len(unpruned.Cause)+len(unpruned.Characteristic) < len(withKw.Cause)+len(withKw.Characteristic) {
		t.Error("pruning added rules")
	}
}

// TestWorkersSnapshotEquivalence ingests the same event stream into a
// 1-worker and an N-worker server and asserts the /v1/rules responses are
// identical: mining parallelism must never change what operators see.
func TestWorkersSnapshotEquivalence(t *testing.T) {
	const jobs = 3000
	lines := paiNDJSON(t, jobs, 11)
	type bodies struct {
		rules, keyword map[string]any
	}
	var got []bodies
	for _, workers := range []int{1, 4} {
		s, err := New(Config{
			Spec:         PAISpec(),
			WindowSize:   5000,
			Bootstrap:    300,
			MineBatch:    jobs,
			MineInterval: time.Hour, // batch-driven: exactly one mine
			QueueSize:    4096,
			Workers:      workers,
			KeepItems:    []string{"status=failed"},
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		postChunks(t, ts.URL, lines, 500)
		deadline := time.Now().Add(15 * time.Second)
		for s.Snapshot() == nil {
			if time.Now().After(deadline) {
				t.Fatal("timed out waiting for the batch-triggered snapshot")
			}
			time.Sleep(2 * time.Millisecond)
		}
		var b bodies
		if code := getJSON(t, ts.URL+"/v1/rules?limit=100000", &b.rules); code != http.StatusOK {
			t.Fatalf("/v1/rules status %d", code)
		}
		if code := getJSON(t, ts.URL+"/v1/rules?keyword=failed&kind=all&limit=100000", &b.keyword); code != http.StatusOK {
			t.Fatalf("/v1/rules?keyword=failed status %d", code)
		}
		// Timing fields legitimately differ between runs.
		delete(b.rules, "mined_at")
		delete(b.keyword, "mined_at")
		got = append(got, b)
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := s.Stop(ctx); err != nil {
			t.Fatal(err)
		}
		cancel()
	}
	if n, ok := got[0].rules["rule_count"].(float64); !ok || n == 0 {
		t.Fatalf("serial run mined no rules: %v", got[0].rules["rule_count"])
	}
	if !reflect.DeepEqual(got[0].rules, got[1].rules) {
		t.Error("/v1/rules differs between 1-worker and 4-worker runs")
	}
	if !reflect.DeepEqual(got[0].keyword, got[1].keyword) {
		t.Error("/v1/rules?keyword=failed differs between 1-worker and 4-worker runs")
	}
}

// Once Stop begins, /healthz must answer 503 — not 200 with a body-level
// "draining" that every load balancer would read as healthy.
func TestHealthz503WhileDraining(t *testing.T) {
	s, err := New(Config{Spec: Spec{}, MineInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var health map[string]any
	if code := getJSON(t, ts.URL+"/healthz", &health); code != http.StatusOK {
		t.Fatalf("healthz before drain = %d, want 200", code)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Stop(ctx); err != nil {
		t.Fatal(err)
	}
	if code := getJSON(t, ts.URL+"/healthz", &health); code != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining = %d, want 503", code)
	}
	if health["status"] != "draining" {
		t.Errorf("health body = %v, want status=draining", health)
	}
	// Ingest is refused too, with the same status.
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/x-ndjson", strings.NewReader("{}\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("ingest while draining = %d, want 503", resp.StatusCode)
	}
}
