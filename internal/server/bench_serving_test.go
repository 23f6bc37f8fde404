package server

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
)

// benchSnap lazily mines one 20k-job snapshot shared by every serving
// benchmark, so the mine cost (seconds) is paid once, outside the timers.
var (
	benchSnapOnce sync.Once
	benchSnapVal  *Snapshot
)

func benchSnapshot(b *testing.B) *Snapshot {
	b.Helper()
	benchSnapOnce.Do(func() {
		benchSnapVal = minedSnapshot(b, 20000, 20000, 3)
	})
	return benchSnapVal
}

func benchServe(b *testing.B, h func(http.ResponseWriter, *http.Request), url string) {
	b.Helper()
	req := httptest.NewRequest("GET", url, nil)
	rec := record(h, url, "")
	if rec.Code != http.StatusOK {
		b.Fatalf("%s: %d %s", url, rec.Code, rec.Body.String())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		h(rec, req)
	}
}

// The headline read-path number: a repeated ?keyword= query against a
// 20k-job snapshot. Both paths resolve the keyword by walking the catalog;
// the indexed path then serves the cached pruned analysis, while the
// linear oracle re-scans every rule and re-prunes per request.
func BenchmarkServingKeywordIndexed(b *testing.B) {
	snap := benchSnapshot(b)
	benchServe(b, func(w http.ResponseWriter, r *http.Request) {
		WriteRules(w, r, snap, RulesParams{Shard: -1})
	}, "/v1/rules?keyword=failed&limit=10")
}

func BenchmarkServingKeywordLinear(b *testing.B) {
	snap := benchSnapshot(b)
	benchServe(b, func(w http.ResponseWriter, r *http.Request) {
		writeRulesLinear(w, r, snap, RulesParams{Shard: -1})
	}, "/v1/rules?keyword=failed&limit=10")
}

// Re-sorting the whole rule table per request versus walking the
// publish-time permutation.
func BenchmarkServingSortIndexed(b *testing.B) {
	snap := benchSnapshot(b)
	benchServe(b, func(w http.ResponseWriter, r *http.Request) {
		WriteRules(w, r, snap, RulesParams{Shard: -1})
	}, "/v1/rules?sort=support&min_lift=2&limit=10")
}

func BenchmarkServingSortLinear(b *testing.B) {
	snap := benchSnapshot(b)
	benchServe(b, func(w http.ResponseWriter, r *http.Request) {
		writeRulesLinear(w, r, snap, RulesParams{Shard: -1})
	}, "/v1/rules?sort=support&min_lift=2&limit=10")
}
