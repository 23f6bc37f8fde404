package shard

import (
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/server"
)

// testShardConfig is a deterministic categorical-only serving config: no
// numeric bins to fit, no tiers, no prevalence dropping, mining only at
// drain. Every string field encodes as field=value on every shard and on a
// single-miner oracle alike.
func testShardConfig() server.Config {
	return server.Config{
		Spec:          server.Spec{},
		WindowSize:    4096,
		MinSupport:    0.1,
		MaxPrevalence: 1, // disable the 80% prevalence drop
		Bootstrap:     1,
		MineInterval:  time.Hour,
		MineBatch:     1 << 20,
		Workers:       1,
	}
}

func mustCluster(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = c.Stop(ctx)
	})
	return c
}

func stopCluster(t *testing.T, c *Cluster) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.Stop(ctx); err != nil {
		t.Fatalf("Stop: %v", err)
	}
}

func TestTenantExtraction(t *testing.T) {
	c := mustCluster(t, Config{Shards: 2, Shard: testShardConfig()})
	cases := []struct {
		ev   server.Event
		want string
		ok   bool
	}{
		{server.Event{"color": "red"}, DefaultTenant, true},
		{server.Event{"tenant": nil, "color": "red"}, DefaultTenant, true},
		{server.Event{"tenant": "acme"}, "acme", true},
		{server.Event{"tenant": float64(42)}, "42", true},
		{server.Event{"tenant": true}, "true", true},
		{server.Event{"tenant": ""}, "", false},
		{server.Event{"tenant": "   "}, "", false},
		{server.Event{"tenant": []any{"x"}}, "", false},
	}
	for i, tc := range cases {
		got, err := c.Tenant(tc.ev)
		if tc.ok && (err != nil || got != tc.want) {
			t.Errorf("case %d: got (%q, %v), want %q", i, got, err, tc.want)
		}
		if !tc.ok && err == nil {
			t.Errorf("case %d: want error, got tenant %q", i, got)
		}
	}
}

func TestShardForStable(t *testing.T) {
	c := mustCluster(t, Config{Shards: 4, Shard: testShardConfig()})
	for _, tenant := range []string{"a", "b", "default", "acme-corp"} {
		first := c.ShardFor(tenant)
		if first < 0 || first >= 4 {
			t.Fatalf("ShardFor(%q) = %d out of range", tenant, first)
		}
		if again := c.ShardFor(tenant); again != first {
			t.Fatalf("ShardFor(%q) unstable: %d then %d", tenant, first, again)
		}
	}
}

// Satellite regression: records missing the tenant key must route to the
// reserved default tenant; only an explicitly present but empty key is a
// per-line rejection.
func TestDefaultTenantRouting(t *testing.T) {
	c := mustCluster(t, Config{Shards: 2, Shard: testShardConfig()})

	body := strings.Join([]string{
		`{"tenant": "acme", "color": "red"}`,
		`{"color": "blue"}`,
		`{"tenant": "", "color": "green"}`,
		`{"tenant": "  ", "color": "green"}`,
	}, "\n")
	req := httptest.NewRequest("POST", "/v1/jobs", strings.NewReader(body))
	rec := httptest.NewRecorder()
	c.Handler().ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("ingest status %d: %s", rec.Code, rec.Body.String())
	}
	var res struct {
		Accepted int `json:"accepted"`
		Rejected int `json:"rejected"`
		Errors   []struct {
			Line  int    `json:"line"`
			Error string `json:"error"`
		} `json:"errors"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if res.Accepted != 2 || res.Rejected != 2 {
		t.Fatalf("accepted/rejected = %d/%d, want 2/2: %s", res.Accepted, res.Rejected, rec.Body.String())
	}
	for _, e := range res.Errors {
		if e.Line != 3 && e.Line != 4 {
			t.Errorf("unexpected rejected line %d: %s", e.Line, e.Error)
		}
		if !strings.Contains(e.Error, "empty") {
			t.Errorf("line %d error should name the empty key: %s", e.Line, e.Error)
		}
	}

	def := c.stats(DefaultTenant)
	if got := def.ingested.Load(); got != 1 {
		t.Fatalf("default tenant ingested = %d, want 1", got)
	}
	if got := c.stats("acme").ingested.Load(); got != 1 {
		t.Fatalf("acme ingested = %d, want 1", got)
	}
}

func TestTenantQuota(t *testing.T) {
	clock := faultinject.NewManualClock(time.Unix(1000, 0))
	cfg := testShardConfig()
	cfg.Clock = clock
	c := mustCluster(t, Config{Shards: 2, QuotaLimit: 2, QuotaWindow: time.Minute, Shard: cfg})

	ev := func(tenant string) server.Event { return server.Event{"tenant": tenant, "color": "red"} }
	for i := 0; i < 2; i++ {
		if err := c.Ingest(ev("acme")); err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
	}
	if err := c.Ingest(ev("acme")); !errors.Is(err, ErrQuota) {
		t.Fatalf("third event: %v, want ErrQuota", err)
	}
	// Another tenant has its own window.
	if err := c.Ingest(ev("other")); err != nil {
		t.Fatalf("other tenant: %v", err)
	}
	// The fixed window resets after QuotaWindow elapses.
	clock.Advance(61 * time.Second)
	if err := c.Ingest(ev("acme")); err != nil {
		t.Fatalf("after window reset: %v", err)
	}
	ts := c.stats("acme")
	if got := ts.quotaRejections.Load(); got != 1 {
		t.Fatalf("acme quota rejections = %d, want 1", got)
	}
	if got := ts.ingested.Load(); got != 3 {
		t.Fatalf("acme ingested = %d, want 3", got)
	}
	if got := c.quotaRejections.Load(); got != 1 {
		t.Fatalf("cluster quota rejections = %d, want 1", got)
	}
}

// pickTenants returns one tenant name per shard of c, so tests can address
// every shard deterministically.
func pickTenants(t *testing.T, c *Cluster) []string {
	t.Helper()
	names := make([]string, c.Shards())
	for i := 0; i < 1000; i++ {
		name := "tenant-" + string(rune('a'+i%26)) + string(rune('0'+i/26))
		if names[c.ShardFor(name)] == "" {
			names[c.ShardFor(name)] = name
		}
		done := true
		for _, n := range names {
			if n == "" {
				done = false
			}
		}
		if done {
			return names
		}
	}
	t.Fatalf("could not find a tenant per shard")
	return nil
}

func TestMergedRulesETagAndTenantViews(t *testing.T) {
	c := mustCluster(t, Config{Shards: 2, Shard: testShardConfig()})
	tenants := pickTenants(t, c)

	// Correlated events so rules exist: color=red ⇒ shape=circle on one
	// shard, color=blue ⇒ shape=square on the other.
	for i := 0; i < 30; i++ {
		if err := c.Ingest(server.Event{"tenant": tenants[0], "color": "red", "shape": "circle"}); err != nil {
			t.Fatalf("ingest: %v", err)
		}
		if err := c.Ingest(server.Event{"tenant": tenants[1], "color": "blue", "shape": "square"}); err != nil {
			t.Fatalf("ingest: %v", err)
		}
	}
	stopCluster(t, c) // drain mines every shard

	get := func(path, inm string) *httptest.ResponseRecorder {
		req := httptest.NewRequest("GET", path, nil)
		if inm != "" {
			req.Header.Set("If-None-Match", inm)
		}
		rec := httptest.NewRecorder()
		c.Handler().ServeHTTP(rec, req)
		return rec
	}

	rec := get("/v1/rules", "")
	if rec.Code != 200 {
		t.Fatalf("/v1/rules: %d %s", rec.Code, rec.Body.String())
	}
	etag := rec.Header().Get("ETag")
	if !strings.HasPrefix(etag, `"m`) {
		t.Fatalf("merged ETag = %q, want m-prefixed shard-set validator", etag)
	}
	var merged struct {
		Shards    int `json:"shards"`
		WindowLen int `json:"window_len"`
		RuleCount int `json:"rule_count"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &merged); err != nil {
		t.Fatalf("decode merged: %v", err)
	}
	if merged.Shards != 2 {
		t.Fatalf("merged shards = %d, want 2", merged.Shards)
	}
	if merged.WindowLen != 60 {
		t.Fatalf("merged window_len = %d, want 60", merged.WindowLen)
	}
	if merged.RuleCount == 0 {
		t.Fatalf("merged view mined no rules")
	}

	// Satellite: the merged ETag revalidates until a shard publishes again.
	if rec := get("/v1/rules", etag); rec.Code != 304 {
		t.Fatalf("If-None-Match %q: %d, want 304", etag, rec.Code)
	}

	// Per-tenant views serve the tenant's own shard window.
	for i, tenant := range tenants {
		rec := get("/v1/tenants/"+tenant+"/rules", "")
		if rec.Code != 200 {
			t.Fatalf("tenant %q rules: %d %s", tenant, rec.Code, rec.Body.String())
		}
		var tv struct {
			Tenant    string `json:"tenant"`
			Shard     *int   `json:"shard"`
			WindowLen int    `json:"window_len"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &tv); err != nil {
			t.Fatalf("decode tenant view: %v", err)
		}
		if tv.Tenant != tenant {
			t.Fatalf("tenant annotation = %q, want %q", tv.Tenant, tenant)
		}
		if tv.Shard == nil || *tv.Shard != i {
			t.Fatalf("shard annotation = %v, want %d", tv.Shard, i)
		}
		if tv.WindowLen != 30 {
			t.Fatalf("tenant %q window_len = %d, want 30", tenant, tv.WindowLen)
		}
	}
	if rec := get("/v1/tenants/%20/rules", ""); rec.Code != 400 {
		t.Fatalf("blank tenant: %d, want 400", rec.Code)
	}
}

func TestClusterHealthAggregation(t *testing.T) {
	c := mustCluster(t, Config{Shards: 3, Shard: testShardConfig()})

	rec := httptest.NewRecorder()
	c.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 200 {
		t.Fatalf("healthz: %d", rec.Code)
	}
	var h struct {
		Status string          `json:"status"`
		Shards []server.Health `json:"shards"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if h.Status != "ok" || len(h.Shards) != 3 {
		t.Fatalf("health = %+v, want ok with 3 shards", h)
	}

	stopCluster(t, c)
	rec = httptest.NewRecorder()
	c.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 503 {
		t.Fatalf("healthz after Stop: %d, want 503", rec.Code)
	}
}

// Satellite: per-tenant counters surface on /metrics in both JSON and the
// Prometheus text exposition format.
func TestMetricsScrapeFormat(t *testing.T) {
	clock := faultinject.NewManualClock(time.Unix(1000, 0))
	cfg := testShardConfig()
	cfg.Clock = clock
	c := mustCluster(t, Config{Shards: 2, QuotaLimit: 1, QuotaWindow: time.Minute, Shard: cfg})

	if err := c.Ingest(server.Event{"tenant": "acme", "color": "red"}); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	if err := c.Ingest(server.Event{"tenant": "acme", "color": "red"}); !errors.Is(err, ErrQuota) {
		t.Fatalf("want quota rejection, got %v", err)
	}
	if err := c.Ingest(server.Event{"tenant": `we"ird`, "color": "red"}); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	stopCluster(t, c)

	rec := httptest.NewRecorder()
	c.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics?format=prometheus", nil))
	if rec.Code != 200 {
		t.Fatalf("scrape: %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("scrape content type %q", ct)
	}
	body := rec.Body.String()
	acmeShard := c.ShardFor("acme")
	wantLines := []string{
		"armine_shards 2",
		"# TYPE armine_tenant_ingested_total counter",
		`armine_tenant_ingested_total{tenant="acme",shard="` + itoa(acmeShard) + `"} 1`,
		`armine_tenant_quota_rejections_total{tenant="acme",shard="` + itoa(acmeShard) + `"} 1`,
		`armine_tenant_ingested_total{tenant="we\"ird",shard="` + itoa(c.ShardFor(`we"ird`)) + `"} 1`,
		`armine_shard_last_mine_ms{shard="0"}`,
		`armine_shard_snapshot_seq{shard="1"}`,
	}
	// The two accepted events count on the shards they routed to (the
	// quota-refused one never reached a shard), so a counter that failed
	// to read would render 0 and miss its exact line.
	var accepted [2]int
	accepted[acmeShard]++
	accepted[c.ShardFor(`we"ird`)]++
	for i, n := range accepted {
		wantLines = append(wantLines, `armine_shard_ingest_accepted_total{shard="`+itoa(i)+`"} `+itoa(n)+"\n")
	}
	for _, want := range wantLines {
		if !strings.Contains(body, want) {
			t.Errorf("scrape output missing %q\n%s", want, body)
		}
	}

	rec = httptest.NewRecorder()
	c.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	var jm struct {
		Shards  int `json:"shards"`
		Tenants map[string]struct {
			Shard           int   `json:"shard"`
			IngestedTotal   int64 `json:"ingested_total"`
			QuotaRejections int64 `json:"quota_rejections_total"`
		} `json:"tenants"`
		Shard []map[string]any `json:"shard"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &jm); err != nil {
		t.Fatalf("decode json metrics: %v", err)
	}
	if jm.Shards != 2 || len(jm.Shard) != 2 {
		t.Fatalf("json metrics shards = %d/%d blocks", jm.Shards, len(jm.Shard))
	}
	acme := jm.Tenants["acme"]
	if acme.IngestedTotal != 1 || acme.QuotaRejections != 1 || acme.Shard != acmeShard {
		t.Fatalf("acme tenant metrics = %+v", acme)
	}
}

func itoa(v int) string { return string(rune('0' + v)) }
