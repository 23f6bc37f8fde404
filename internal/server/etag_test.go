package server

import (
	"io"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/itemset"
	"repro/internal/stream"
)

func testSnapshot(seq int64, stale bool) *Snapshot {
	view := &stream.View{Catalog: itemset.NewCatalog(), WindowLen: 3, Total: 3}
	return NewSnapshot(nil, seq, view, faultinject.RealClock(), time.Now(), stale)
}

// /v1/rules must carry an ETag keyed on the snapshot seq and answer 304 to
// a matching If-None-Match, so clients cache rule tables across the mine
// cadence.
func TestRulesETagConditional(t *testing.T) {
	snap := testSnapshot(7, false)

	rec := httptest.NewRecorder()
	WriteRules(rec, httptest.NewRequest("GET", "/v1/rules", nil), snap, RulesParams{Shard: -1})
	if rec.Code != 200 {
		t.Fatalf("unconditional GET: %d", rec.Code)
	}
	etag := rec.Header().Get("ETag")
	if etag != `"7"` {
		t.Fatalf("ETag = %q, want %q", etag, `"7"`)
	}

	req := httptest.NewRequest("GET", "/v1/rules", nil)
	req.Header.Set("If-None-Match", etag)
	rec = httptest.NewRecorder()
	WriteRules(rec, req, snap, RulesParams{Shard: -1})
	if rec.Code != 304 {
		t.Fatalf("matching If-None-Match: %d, want 304", rec.Code)
	}
	if body, _ := io.ReadAll(rec.Result().Body); len(body) != 0 {
		t.Fatalf("304 must have no body, got %q", body)
	}
	if rec.Header().Get("ETag") != etag {
		t.Fatalf("304 dropped the ETag header")
	}

	// Weak comparison: a W/ prefixed validator still revalidates.
	req = httptest.NewRequest("GET", "/v1/rules", nil)
	req.Header.Set("If-None-Match", `W/"7"`)
	rec = httptest.NewRecorder()
	WriteRules(rec, req, snap, RulesParams{Shard: -1})
	if rec.Code != 304 {
		t.Fatalf("weak validator: %d, want 304", rec.Code)
	}

	// A new publish moves the ETag, so the stale validator gets a full 200.
	next := testSnapshot(8, false)
	req = httptest.NewRequest("GET", "/v1/rules", nil)
	req.Header.Set("If-None-Match", etag)
	rec = httptest.NewRecorder()
	WriteRules(rec, req, next, RulesParams{Shard: -1})
	if rec.Code != 200 {
		t.Fatalf("stale validator against newer snapshot: %d, want 200", rec.Code)
	}
	if rec.Header().Get("ETag") != `"8"` {
		t.Fatalf("new snapshot ETag = %q", rec.Header().Get("ETag"))
	}
}

// A degraded republish keeps the seq but flips Stale; its ETag must differ
// so a cached healthy response never revalidates against the stale one.
func TestRulesETagStaleVariant(t *testing.T) {
	stale := testSnapshot(7, true)
	rec := httptest.NewRecorder()
	WriteRules(rec, httptest.NewRequest("GET", "/v1/rules", nil), stale, RulesParams{Shard: -1})
	if got := rec.Header().Get("ETag"); got != `"7-stale"` {
		t.Fatalf("stale ETag = %q, want %q", got, `"7-stale"`)
	}
	req := httptest.NewRequest("GET", "/v1/rules", nil)
	req.Header.Set("If-None-Match", `"7"`)
	rec = httptest.NewRecorder()
	WriteRules(rec, req, stale, RulesParams{Shard: -1})
	if rec.Code != 200 {
		t.Fatalf("healthy validator against stale snapshot: %d, want 200", rec.Code)
	}
}

func TestETagMatches(t *testing.T) {
	cases := []struct {
		header, etag string
		want         bool
	}{
		{`"7"`, `"7"`, true},
		{`W/"7"`, `"7"`, true},
		{`"5", "6", "7"`, `"7"`, true},
		{`*`, `"anything"`, true},
		{`"8"`, `"7"`, false},
		{`"7-stale"`, `"7"`, false},
		{``, `"7"`, false},
	}
	for _, c := range cases {
		if got := etagMatches(c.header, c.etag); got != c.want {
			t.Errorf("etagMatches(%q, %q) = %v, want %v", c.header, c.etag, got, c.want)
		}
	}
}
