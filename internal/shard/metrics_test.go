package shard

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/server"
)

// The cluster's /metrics reports the merged index's keyword-analysis cache
// in both renderings, read from the last merged snapshot: a scrape never
// remerges, not even when the shard seq vector has moved past that merge.
func TestMergedKeywordCacheMetrics(t *testing.T) {
	c := mustCluster(t, Config{Shards: 2, Shard: testShardConfig()})
	tenants := pickTenants(t, c)
	for i := 0; i < 30; i++ {
		for j, tenant := range tenants {
			ev := server.Event{"tenant": tenant, "color": "red", "shape": "circle"}
			if j == 1 {
				ev = server.Event{"tenant": tenant, "color": "blue", "shape": "square"}
			}
			if err := c.Ingest(ev); err != nil {
				t.Fatalf("ingest: %v", err)
			}
		}
	}
	stopCluster(t, c) // drain mines every shard

	get := func(path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		c.Handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != 200 {
			t.Fatalf("%s: %d %s", path, rec.Code, rec.Body.String())
		}
		return rec
	}
	scrape := func() (jsonHits, jsonMisses int64, prom string) {
		t.Helper()
		var jm struct {
			Hits   *int64 `json:"merged_keyword_cache_hits"`
			Misses *int64 `json:"merged_keyword_cache_misses"`
		}
		if err := json.Unmarshal(get("/metrics").Body.Bytes(), &jm); err != nil {
			t.Fatalf("decode json metrics: %v", err)
		}
		if jm.Hits == nil || jm.Misses == nil {
			t.Fatal("json metrics lack merged_keyword_cache_hits/_misses")
		}
		return *jm.Hits, *jm.Misses, get("/metrics?format=prometheus").Body.String()
	}
	check := func(wantHits, wantMisses int64) {
		t.Helper()
		before := c.merged.Load()
		hits, misses, prom := scrape()
		if hits != wantHits || misses != wantMisses {
			t.Fatalf("json merged keyword cache = %d hits, %d misses; want %d, %d", hits, misses, wantHits, wantMisses)
		}
		for _, want := range []string{
			"# TYPE armine_merged_keyword_cache_hits_total counter\n",
			"armine_merged_keyword_cache_hits_total " + itoa(int(wantHits)) + "\n",
			"# TYPE armine_merged_keyword_cache_misses_total counter\n",
			"armine_merged_keyword_cache_misses_total " + itoa(int(wantMisses)) + "\n",
		} {
			if !strings.Contains(prom, want) {
				t.Errorf("scrape output missing %q\n%s", want, prom)
			}
		}
		if c.merged.Load() != before {
			t.Fatal("a /metrics scrape remerged the cluster")
		}
	}

	// Stop shuts the merged-watch notifier down before the drain mines, so
	// nothing has merged yet.
	if c.merged.Load() != nil {
		t.Fatal("cluster merged before any request")
	}
	check(0, 0)

	get("/v1/rules?keyword=color%3Dred")
	check(0, 1)
	get("/v1/rules?keyword=color%3Dred")
	get("/v1/rules?keyword=color%3Dred&kind=cause")
	check(2, 1)

	// Age the cached merge's key as a later shard publish would: the next
	// request would remerge, but a scrape still reads the old view.
	m := c.merged.Load()
	c.merged.Store(&mergedSnap{snap: m.snap, key: m.key + "|moved", etag: m.etag})
	check(2, 1)
}
