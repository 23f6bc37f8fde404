package shard

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"sort"
	"testing"

	"repro/internal/server"
)

// The cluster's /metrics JSON contract: the top-level keys, one tenants
// entry and every shard[i] block, with the JSON kind of each value. perfbench
// reads rejected_total and merged_watch_events_total from the top level and
// queue_depth, snapshot_seq, last_mine_ms, mine_count and the ingest and
// keyword-cache counters from the shard blocks.
var (
	clusterContractTop = map[string]string{
		"shards":                      "number",
		"tenant_field":                "string",
		"rejected_total":              "number",
		"quota_rejections_total":      "number",
		"merged_watch_subscribers":    "number",
		"merged_watch_events_total":   "number",
		"merged_keyword_cache_hits":   "number",
		"merged_keyword_cache_misses": "number",
		"tenants":                     "object",
		"shard":                       "array",
	}
	clusterContractTenant = map[string]string{
		"shard":                  "number",
		"ingested_total":         "number",
		"quota_rejections_total": "number",
	}
	// clusterContractShard is a shard block before its first mine.
	clusterContractShard = map[string]string{
		"uptime_s":             "number",
		"ingest_accepted":      "number",
		"ingest_rejected":      "number",
		"ingest_throttled":     "number",
		"encode_errors":        "number",
		"encode_panics":        "number",
		"queue_depth":          "number",
		"queue_capacity":       "number",
		"window_capacity":      "number",
		"mine_count":           "number",
		"last_mine_ms":         "number",
		"last_mine_txns":       "number",
		"mine_panics_total":    "number",
		"mine_timeouts_total":  "number",
		"degraded":             "bool",
		"watch_subscribers":    "number",
		"watch_events_total":   "number",
		"checkpoints":          "number",
		"checkpoint_errors":    "number",
		"checkpoint_fallbacks": "number",
		"restored":             "number",
		"snapshot_seq":         "number",
		"window_len":           "number",
		"rules":                "number",
		"snapshot_age_s":       "number",
	}
	// clusterContractMined holds the keys a shard's published snapshot adds.
	clusterContractMined = map[string]string{
		"snapshot_stale":       "bool",
		"observed_total":       "number",
		"keyword_cache_hits":   "number",
		"keyword_cache_misses": "number",
	}
)

func jsonKind(v any) string {
	switch v.(type) {
	case float64:
		return "number"
	case string:
		return "string"
	case bool:
		return "bool"
	case map[string]any:
		return "object"
	case []any:
		return "array"
	case nil:
		return "null"
	}
	return fmt.Sprintf("%T", v)
}

func checkKinds(t *testing.T, what string, m map[string]any, want ...map[string]string) {
	t.Helper()
	all := map[string]string{}
	for _, w := range want {
		for k, v := range w {
			all[k] = v
		}
	}
	var diffs []string
	for k, w := range all {
		if v, ok := m[k]; !ok {
			diffs = append(diffs, fmt.Sprintf("missing %s (%s)", k, w))
		} else if g := jsonKind(v); g != w {
			diffs = append(diffs, fmt.Sprintf("%s is %s, want %s", k, g, w))
		}
	}
	for k, v := range m {
		if _, ok := all[k]; !ok {
			diffs = append(diffs, fmt.Sprintf("unexpected %s (%s)", k, jsonKind(v)))
		}
	}
	sort.Strings(diffs)
	for _, d := range diffs {
		t.Errorf("%s: %s", what, d)
	}
}

// TestClusterMetricsJSONContract pins the cluster /metrics body before the
// shards mine and after the drain has mined them.
func TestClusterMetricsJSONContract(t *testing.T) {
	c := mustCluster(t, Config{Shards: 2, Shard: testShardConfig()})
	tenants := pickTenants(t, c)
	for i := 0; i < 20; i++ {
		for _, tenant := range tenants {
			if err := c.Ingest(server.Event{"tenant": tenant, "color": "red"}); err != nil {
				t.Fatalf("ingest: %v", err)
			}
		}
	}
	check := func(state string, shard ...map[string]string) {
		t.Helper()
		rec := httptest.NewRecorder()
		c.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		var body map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("%s: decode: %v", state, err)
		}
		checkKinds(t, state+" top level", body, clusterContractTop)
		ts, _ := body["tenants"].(map[string]any)
		if len(ts) != len(tenants) {
			t.Fatalf("%s: %d tenants entries, want %d", state, len(ts), len(tenants))
		}
		entry, _ := ts[tenants[0]].(map[string]any)
		checkKinds(t, state+" tenants entry", entry, clusterContractTenant)
		blocks, _ := body["shard"].([]any)
		if len(blocks) != 2 {
			t.Fatalf("%s: %d shard blocks, want 2", state, len(blocks))
		}
		for i, b := range blocks {
			block, _ := b.(map[string]any)
			checkKinds(t, fmt.Sprintf("%s shard[%d]", state, i), block, shard...)
		}
	}
	check("pending", clusterContractShard)
	stopCluster(t, c)
	check("drained", clusterContractShard, clusterContractMined)
}
