package shard

import (
	"net/http"
	"sort"
	"strconv"
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

// handleMetrics serves the cluster's samples in both renderings.
func (c *Cluster) handleMetrics(w http.ResponseWriter, r *http.Request) {
	samples, body := c.metrics()
	server.ServeMetrics(w, r, samples, body)
}

// metrics reads the cluster's counters, then each tenant's in name order
// (labelled tenant and shard), then every shard server's (labelled shard).
// The JSON body renders the same samples, nesting each tenant's under
// tenants[name] and each shard's under shard[i].
func (c *Cluster) metrics() ([]server.Sample, map[string]any) {
	// A scrape never pays for a merge: the merged view's cache counters are
	// the last merged snapshot's, 0 before the first merge.
	var hits, misses int64
	if m := c.merged.Load(); m != nil && m.snap.Index != nil {
		hits, misses = m.snap.Index.CacheStats()
	}
	out := []server.Sample{
		server.Gauge("shards", "Number of shard miners in the cluster.", len(c.shards)),
		server.Gauge("tenant_field", "Event field that names the tenant.", c.cfg.TenantField),
		server.Counter("rejected_total", "Lines refused before routing: unparseable, bad tenant key or failed validation.", c.rejected.Load()),
		server.Counter("quota_rejections_total", "Events refused by tenant quotas, all tenants.", c.quotaRejections.Load()),
		server.Gauge("merged_watch_subscribers", "Open merged drift watch streams.", c.mergedWatch.Subscribers()),
		server.Counter("merged_watch_events_total", "Merged drift events published.", c.mergedWatch.EventsPublished()),
		server.Counter("merged_keyword_cache_hits", "Keyword analyses the merged view's index served from its cache.", hits),
		server.Counter("merged_keyword_cache_misses", "Keyword analyses the merged view's index computed cold.", misses),
	}
	body := server.MetricsJSON(out)
	tenants := map[string]map[string]any{}
	c.tenantsMu.RLock()
	names := make([]string, 0, len(c.tenants))
	for name := range c.tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ts := c.tenants[name]
		samples := labelled([]server.Label{{Name: "tenant", Value: name}, {Name: "shard", Value: strconv.Itoa(ts.shard)}},
			server.Gauge("shard", "Shard the tenant routes to.", ts.shard),
			server.Counter("ingested_total", "Events accepted and routed, per tenant.", ts.ingested.Load()),
			server.Counter("quota_rejections_total", "Events refused by the tenant ingest quota.", ts.quotaRejections.Load()),
		)
		tenants[name] = server.MetricsJSON(samples)
		out = append(out, samples...)
	}
	c.tenantsMu.RUnlock()
	shards := make([]map[string]any, len(c.shards))
	for i, s := range c.shards {
		samples := s.Samples()
		shards[i] = server.MetricsJSON(samples)
		out = append(out, labelled([]server.Label{{Name: "shard", Value: strconv.Itoa(i)}}, samples...)...)
	}
	body["tenants"], body["shard"] = tenants, shards
	return out, body
}

// labelled puts labels on every sample.
func labelled(labels []server.Label, samples ...server.Sample) []server.Sample {
	for i := range samples {
		samples[i].Labels = labels
	}
	return samples
}
