package shard

import (
	"fmt"
	"net/http"
	"sort"
	"strings"

	"repro/internal/server"
)

// handleIngest decodes the batch once at the front tier, then routes each
// event to its tenant's shard through the server's own ingest front. Per-line
// failures (bad parse, bad tenant key, validation, quota) are reported and
// skipped so one tenant's problem never blocks another tenant's events in
// the same batch. Every shard shares MineInterval, so any shard's
// Retry-After hint is the cluster's.
func (c *Cluster) handleIngest(w http.ResponseWriter, r *http.Request) {
	server.ServeIngest(w, r, c.dec, c.Ingest, func() { c.rejected.Add(1) }, c.maxAgeSeconds())
}

// handleRules serves the merged view: the rules mined over the union of
// every shard's window. The ETag carries the shard seq/stale vector hash, so clients
// revalidate 304 until any shard publishes a new snapshot.
func (c *Cluster) handleRules(w http.ResponseWriter, r *http.Request) {
	snap, etag := c.Merged()
	server.WriteRules(w, r, snap, server.RulesParams{
		CLift:         c.cfg.Shard.CLift,
		CSupp:         c.cfg.Shard.CSupp,
		ETag:          etag,
		Shard:         -1,
		Shards:        len(c.shards),
		MaxAgeSeconds: c.maxAgeSeconds(),
	})
}

// maxAgeSeconds is the cluster's Cache-Control lifetime: the shard mine
// cadence, which bounds how soon a merged response can change.
func (c *Cluster) maxAgeSeconds() int { return c.shards[0].RetryAfterSeconds() }

// handleDrift diffs consecutive merged snapshots.
func (c *Cluster) handleDrift(w http.ResponseWriter, r *http.Request) {
	snap, etag := c.Merged()
	server.WriteDrift(w, r, snap, server.DriftParams{ETag: etag, MaxAgeSeconds: c.maxAgeSeconds()})
}

// handleWatch streams merged drift events: the notifier remerges on every
// shard publish, so subscribers see cluster-level appear/vanish churn
// without polling.
func (c *Cluster) handleWatch(w http.ResponseWriter, r *http.Request) {
	server.ServeWatch(w, r, c.mergedWatch)
}

// handleTenantWatch streams the drift events of the tenant's own shard —
// the push counterpart of /v1/tenants/{tenant}/rules.
func (c *Cluster) handleTenantWatch(w http.ResponseWriter, r *http.Request) {
	tenant := r.PathValue("tenant")
	if strings.TrimSpace(tenant) == "" {
		server.WriteError(w, http.StatusBadRequest, "empty tenant")
		return
	}
	server.ServeWatch(w, r, c.shards[c.ShardFor(tenant)].Watch())
}

// handleTenantRules serves one tenant's view: the snapshot of the shard
// the tenant routes to. Isolation is at shard granularity — tenants
// cohabiting a shard share a window — which is the deployment's documented
// trade: per-tenant isolation rises with the shard count.
func (c *Cluster) handleTenantRules(w http.ResponseWriter, r *http.Request) {
	tenant := r.PathValue("tenant")
	if strings.TrimSpace(tenant) == "" {
		server.WriteError(w, http.StatusBadRequest, "empty tenant")
		return
	}
	shard := c.ShardFor(tenant)
	server.WriteRules(w, r, c.shards[shard].Snapshot(), server.RulesParams{
		CLift:         c.cfg.Shard.CLift,
		CSupp:         c.cfg.Shard.CSupp,
		Tenant:        tenant,
		Shard:         shard,
		MaxAgeSeconds: c.maxAgeSeconds(),
	})
}

// clusterHealth is the GET /healthz body: the aggregate status plus every
// shard's own health block.
type clusterHealth struct {
	Status string          `json:"status"`
	Shards []server.Health `json:"shards"`
}

// handleHealth aggregates shard health. One degraded or stale shard
// degrades the whole cluster — merged rules would silently carry that
// shard's old window, so operators must see it — and a draining shard
// answers 503 cluster-wide, moving balancer traffic away during shutdown.
func (c *Cluster) handleHealth(w http.ResponseWriter, _ *http.Request) {
	ch := clusterHealth{Status: "ok", Shards: make([]server.Health, len(c.shards))}
	status := http.StatusOK
	for i, s := range c.shards {
		h := s.Health()
		ch.Shards[i] = h
		if h.Status == "degraded" || h.SnapshotStale {
			if ch.Status == "ok" {
				ch.Status = "degraded"
			}
		}
		if h.Status == "draining" {
			ch.Status = "draining"
			status = http.StatusServiceUnavailable
		}
	}
	server.WriteJSON(w, status, ch)
}

// tenantMetrics is one tenant's block in the JSON /metrics body.
type tenantMetrics struct {
	Shard           int   `json:"shard"`
	IngestedTotal   int64 `json:"ingested_total"`
	QuotaRejections int64 `json:"quota_rejections_total"`
}

// handleMetrics serves cluster counters. The default body is JSON (cluster
// totals, a per-tenant map, and every shard's own metrics block);
// ?format=prometheus renders the text exposition format for scrape jobs.
func (c *Cluster) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "prometheus" {
		c.writePrometheus(w)
		return
	}
	tenants := map[string]tenantMetrics{}
	c.tenantsMu.RLock()
	for name, ts := range c.tenants {
		tenants[name] = tenantMetrics{
			Shard:           ts.shard,
			IngestedTotal:   ts.ingested.Load(),
			QuotaRejections: ts.quotaRejections.Load(),
		}
	}
	c.tenantsMu.RUnlock()
	shards := make([]map[string]any, len(c.shards))
	for i, s := range c.shards {
		shards[i] = s.Metrics()
	}
	hits, misses := c.mergedCacheStats()
	server.WriteJSON(w, http.StatusOK, map[string]any{
		"shards":                      len(c.shards),
		"tenant_field":                c.cfg.TenantField,
		"rejected_total":              c.rejected.Load(),
		"quota_rejections_total":      c.quotaRejections.Load(),
		"merged_watch_subscribers":    c.mergedWatch.Subscribers(),
		"merged_watch_events_total":   c.mergedWatch.EventsPublished(),
		"merged_keyword_cache_hits":   hits,
		"merged_keyword_cache_misses": misses,
		"tenants":                     tenants,
		"shard":                       shards,
	})
}

// mergedCacheStats reads the keyword-analysis cache counters of the last
// merged snapshot's index, as a shard's metrics read its own snapshot's.
// It never remerges: a scrape must not pay for a merge, so the counters
// belong to the last merged view even when a shard has published since,
// and are zero before the first merge.
func (c *Cluster) mergedCacheStats() (hits, misses int64) {
	if m := c.merged.Load(); m != nil && m.snap.Index != nil {
		return m.snap.Index.CacheStats()
	}
	return 0, 0
}

// promEscape escapes a label value per the Prometheus text exposition
// format: backslash, double quote and newline.
func promEscape(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// writePrometheus renders the satellite scrape surface: per-tenant ingest
// and quota counters, per-shard mining gauges, and the merged view's
// keyword-cache counters, all with deterministic ordering so the output is
// diffable.
func (c *Cluster) writePrometheus(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	var b strings.Builder

	type trow struct {
		name string
		ts   *tenantStats
	}
	c.tenantsMu.RLock()
	rows := make([]trow, 0, len(c.tenants))
	for name, ts := range c.tenants {
		rows = append(rows, trow{name, ts})
	}
	c.tenantsMu.RUnlock()
	sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })

	fmt.Fprintf(&b, "# HELP armine_cluster_shards Number of shard miners in the cluster.\n")
	fmt.Fprintf(&b, "# TYPE armine_cluster_shards gauge\n")
	fmt.Fprintf(&b, "armine_cluster_shards %d\n", len(c.shards))

	fmt.Fprintf(&b, "# HELP armine_tenant_ingested_total Events accepted and routed, per tenant.\n")
	fmt.Fprintf(&b, "# TYPE armine_tenant_ingested_total counter\n")
	for _, row := range rows {
		fmt.Fprintf(&b, "armine_tenant_ingested_total{tenant=\"%s\",shard=\"%d\"} %d\n",
			promEscape(row.name), row.ts.shard, row.ts.ingested.Load())
	}
	fmt.Fprintf(&b, "# HELP armine_tenant_quota_rejections_total Events refused by the tenant ingest quota.\n")
	fmt.Fprintf(&b, "# TYPE armine_tenant_quota_rejections_total counter\n")
	for _, row := range rows {
		fmt.Fprintf(&b, "armine_tenant_quota_rejections_total{tenant=\"%s\",shard=\"%d\"} %d\n",
			promEscape(row.name), row.ts.shard, row.ts.quotaRejections.Load())
	}

	fmt.Fprintf(&b, "# HELP armine_shard_mine_duration_seconds Duration of the shard's latest re-mine.\n")
	fmt.Fprintf(&b, "# TYPE armine_shard_mine_duration_seconds gauge\n")
	type shardGauge struct {
		seq      int64
		accepted int64
		dur      float64
	}
	gauges := make([]shardGauge, len(c.shards))
	for i, s := range c.shards {
		if snap := s.Snapshot(); snap != nil {
			gauges[i].seq = snap.Seq
			gauges[i].dur = snap.MineDuration.Seconds()
		}
		gauges[i].accepted = s.Accepted()
		fmt.Fprintf(&b, "armine_shard_mine_duration_seconds{shard=\"%d\"} %g\n", i, gauges[i].dur)
	}
	fmt.Fprintf(&b, "# HELP armine_shard_snapshot_seq Latest published snapshot sequence number.\n")
	fmt.Fprintf(&b, "# TYPE armine_shard_snapshot_seq gauge\n")
	for i := range gauges {
		fmt.Fprintf(&b, "armine_shard_snapshot_seq{shard=\"%d\"} %d\n", i, gauges[i].seq)
	}
	fmt.Fprintf(&b, "# HELP armine_shard_ingest_accepted_total Events enqueued into the shard's mining loop.\n")
	fmt.Fprintf(&b, "# TYPE armine_shard_ingest_accepted_total counter\n")
	for i := range gauges {
		fmt.Fprintf(&b, "armine_shard_ingest_accepted_total{shard=\"%d\"} %d\n", i, gauges[i].accepted)
	}

	hits, misses := c.mergedCacheStats()
	fmt.Fprintf(&b, "# HELP armine_merged_keyword_cache_hits_total Keyword analyses the merged view's index served from its cache.\n")
	fmt.Fprintf(&b, "# TYPE armine_merged_keyword_cache_hits_total counter\n")
	fmt.Fprintf(&b, "armine_merged_keyword_cache_hits_total %d\n", hits)
	fmt.Fprintf(&b, "# HELP armine_merged_keyword_cache_misses_total Keyword analyses the merged view's index computed cold.\n")
	fmt.Fprintf(&b, "# TYPE armine_merged_keyword_cache_misses_total counter\n")
	fmt.Fprintf(&b, "armine_merged_keyword_cache_misses_total %d\n", misses)

	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte(b.String()))
}
