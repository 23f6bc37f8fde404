// Package shard turns the single-miner serving daemon into an N-shard
// multi-tenant deployment. A Cluster owns N independent server.Server
// shards — each with its own sliding window, online encoder, item catalog
// and (when configured) checkpoint/WAL directory — and routes every ingested
// event to one shard by hashing a tenant key field. Tenants therefore get
// isolated windows, isolated failure domains and per-tenant ingest quotas,
// while the cluster still answers global queries: a merge stage reconciles
// the per-shard windows into one rule snapshot using internal/son's two-pass
// candidate-then-count protocol, so the merged /v1/rules is provably the
// same rule set a single miner over the union window would have produced
// (SON is exact, not approximate).
package shard

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultinject"
	"repro/internal/itemset"
	"repro/internal/server"
)

// DefaultTenant is the reserved tenant that events missing the tenant key
// route to. Records with no opinion about tenancy still flow into one
// deterministic shard instead of being dropped; only an explicitly present
// but empty key is a client error.
const DefaultTenant = "default"

// Config sizes the cluster.
type Config struct {
	// Shards is the number of shard miners; zero means 1.
	Shards int
	// TenantField is the event field carrying the tenant/user key; zero
	// means "tenant". Events without the field route to DefaultTenant;
	// events where the field is present but empty are rejected.
	TenantField string
	// QuotaLimit caps accepted events per tenant per QuotaWindow (a fixed
	// window, reset at the first event after each boundary). Zero disables
	// quotas.
	QuotaLimit int
	// QuotaWindow is the quota accounting window; zero means 1 minute.
	QuotaWindow time.Duration
	// Shard is the template configuration every shard server starts from.
	// StateDir and WALDir, when set, are treated as cluster roots: shard i
	// derives <dir>/shard-<i> so restarts land each shard on its own state.
	// The Clock seam also drives the quota windows.
	Shard server.Config
}

func (c Config) withDefaults() Config {
	if c.Shards == 0 {
		c.Shards = 1
	}
	if c.TenantField == "" {
		c.TenantField = "tenant"
	}
	if c.QuotaWindow == 0 {
		c.QuotaWindow = time.Minute
	}
	return c
}

// tenantStats is one tenant's routing assignment, lifetime counters and
// quota window. The counters are atomic (read by /metrics while ingest
// writes); the quota window state is guarded by its own mutex.
type tenantStats struct {
	shard           int
	ingested        atomic.Int64
	quotaRejections atomic.Int64

	mu          sync.Mutex
	windowStart time.Time
	windowCount int
}

// allow charges one event against the tenant's fixed quota window.
func (ts *tenantStats) allow(now time.Time, limit int, window time.Duration) bool {
	if limit <= 0 {
		return true
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if ts.windowStart.IsZero() || now.Sub(ts.windowStart) >= window {
		ts.windowStart = now
		ts.windowCount = 0
	}
	if ts.windowCount >= limit {
		return false
	}
	ts.windowCount++
	return true
}

// Cluster is an N-shard serving deployment: a router in front of N
// server.Server miners plus the SON merge stage behind /v1/rules. Create
// with New, mount Handler, Stop to drain every shard.
type Cluster struct {
	cfg    Config
	dec    *server.Decoder
	clock  faultinject.Clock
	shards []*server.Server
	mux    *http.ServeMux

	tenantsMu sync.RWMutex
	tenants   map[string]*tenantStats

	rejected        atomic.Int64 // events refused before routing (validation or tenant key)
	quotaRejections atomic.Int64 // events refused by tenant quotas, all tenants

	// merge guards the SON merge: merged caches the last merged snapshot
	// keyed on the shard seq/stale vector, mergeMu single-flights a remerge,
	// and mergeCatalog (touched only under mergeMu) interns item names with
	// cluster-stable ids so consecutive merged snapshots diff meaningfully.
	mergeMu      sync.Mutex
	merged       atomic.Pointer[mergedSnap]
	mergeCatalog *itemset.Catalog

	// mergedWatch pushes merged drift events to /v1/drift/watch. The
	// notifier goroutine wakes on any shard publish (via each shard hub's
	// coalescing NotifyOn channel) and remerges, so merged events flow
	// without request traffic; per-tenant watches go straight to the
	// tenant's shard hub.
	mergedWatch  *server.WatchHub
	notifyCh     chan struct{}
	notifyOff    []func()
	notifierQuit chan struct{}
	notifierDone chan struct{}
	stopOnce     sync.Once
}

// New starts every shard miner and returns the cluster. Each shard derives
// its own state and WAL directory from the template config, so a restart
// with the same roots restores every shard from its own checkpoint and WAL
// tail independently.
func New(cfg Config) (*Cluster, error) {
	cfg = cfg.withDefaults()
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("shard: shard count %d", cfg.Shards)
	}
	clock := cfg.Shard.Clock
	if clock == nil {
		clock = faultinject.RealClock()
	}
	c := &Cluster{
		cfg:     cfg,
		dec:     server.NewDecoder(cfg.Shard.Spec),
		clock:   clock,
		shards:  make([]*server.Server, cfg.Shards),
		tenants: make(map[string]*tenantStats),
	}
	c.mergeCatalog = itemset.NewCatalog()
	for i := range c.shards {
		sc := cfg.Shard
		if sc.StateDir != "" {
			sc.StateDir = filepath.Join(sc.StateDir, shardDirName(i))
		}
		if sc.WALDir != "" {
			sc.WALDir = filepath.Join(sc.WALDir, shardDirName(i))
		}
		s, err := server.New(sc)
		if err != nil {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			for j := 0; j < i; j++ {
				_ = c.shards[j].Stop(ctx)
			}
			cancel()
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		c.shards[i] = s
	}
	c.mux = http.NewServeMux()
	c.mux.HandleFunc("POST /v1/jobs", c.handleIngest)
	c.mux.HandleFunc("GET /v1/rules", c.handleRules)
	c.mux.HandleFunc("GET /v1/drift", c.handleDrift)
	c.mux.HandleFunc("GET /v1/drift/watch", c.handleWatch)
	c.mux.HandleFunc("GET /v1/tenants/{tenant}/rules", c.handleTenantRules)
	c.mux.HandleFunc("GET /v1/tenants/{tenant}/drift/watch", c.handleTenantWatch)
	c.mux.HandleFunc("GET /healthz", c.handleHealth)
	c.mux.HandleFunc("GET /metrics", c.handleMetrics)
	c.mergedWatch = server.NewWatchHub(cfg.Shard.WatchHistory)
	c.notifyCh = make(chan struct{}, 1)
	c.notifierQuit = make(chan struct{})
	c.notifierDone = make(chan struct{})
	for _, s := range c.shards {
		c.notifyOff = append(c.notifyOff, s.Watch().NotifyOn(c.notifyCh))
	}
	go c.notifier()
	return c, nil
}

// notifier remerges whenever any shard publishes, so merged drift events
// push to /v1/drift/watch subscribers instead of waiting for the next
// query. The channel coalesces bursts: N near-simultaneous shard publishes
// cost one remerge (the seq/stale vector is re-read under the merge lock).
func (c *Cluster) notifier() {
	defer close(c.notifierDone)
	for {
		select {
		case <-c.notifierQuit:
			return
		case <-c.notifyCh:
			c.Merged()
		}
	}
}

// shardDirName is the per-shard state subdirectory under the cluster roots.
func shardDirName(i int) string { return fmt.Sprintf("shard-%d", i) }

// Shards returns the shard count.
func (c *Cluster) Shards() int { return len(c.shards) }

// Shard returns shard i's server — per-shard snapshots and metrics for
// tests and embedders.
func (c *Cluster) Shard(i int) *server.Server { return c.shards[i] }

// Handler returns the cluster HTTP API. It mirrors the single-server
// surface (POST /v1/jobs, GET /v1/rules, /v1/drift, /healthz, /metrics) and
// adds GET /v1/tenants/{tenant}/rules for a tenant's own shard view.
func (c *Cluster) Handler() http.Handler { return c.mux }

// Stop drains every shard concurrently; each flushes its final snapshot and
// checkpoint exactly as a standalone server would. The merge notifier and
// the merged watch hub shut down first, ending every /v1/drift/watch
// stream.
func (c *Cluster) Stop(ctx context.Context) error {
	c.stopOnce.Do(func() {
		for _, off := range c.notifyOff {
			off()
		}
		close(c.notifierQuit)
		<-c.notifierDone
		c.mergedWatch.Close()
	})
	errs := make([]error, len(c.shards))
	var wg sync.WaitGroup
	for i, s := range c.shards {
		wg.Add(1)
		go func(i int, s *server.Server) {
			defer wg.Done()
			errs[i] = s.Stop(ctx)
		}(i, s)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Tenant extracts the routing key from one event. A missing field (or JSON
// null) routes to DefaultTenant; a field that is present but empty — or of
// a type that cannot name a tenant — is a client error.
func (c *Cluster) Tenant(ev server.Event) (string, error) {
	v, ok := ev[c.cfg.TenantField]
	if !ok || v == nil {
		return DefaultTenant, nil
	}
	switch t := v.(type) {
	case string:
		if strings.TrimSpace(t) == "" {
			return "", fmt.Errorf("tenant field %q is empty", c.cfg.TenantField)
		}
		return t, nil
	case float64:
		return strconv.FormatFloat(t, 'g', -1, 64), nil
	case bool:
		return strconv.FormatBool(t), nil
	default:
		return "", fmt.Errorf("tenant field %q has unroutable type %T", c.cfg.TenantField, v)
	}
}

// ShardFor maps a tenant to its shard by FNV-1a hash — stable across
// restarts and processes, so a tenant's data always lands on the same shard
// for a fixed shard count.
func (c *Cluster) ShardFor(tenant string) int {
	h := fnv.New32a()
	_, _ = h.Write([]byte(tenant))
	return int(h.Sum32() % uint32(len(c.shards)))
}

// stats returns (creating on first sight) the tenant's stats record.
func (c *Cluster) stats(tenant string) *tenantStats {
	c.tenantsMu.RLock()
	ts := c.tenants[tenant]
	c.tenantsMu.RUnlock()
	if ts != nil {
		return ts
	}
	c.tenantsMu.Lock()
	defer c.tenantsMu.Unlock()
	if ts = c.tenants[tenant]; ts == nil {
		ts = &tenantStats{shard: c.ShardFor(tenant)}
		c.tenants[tenant] = ts
	}
	return ts
}

// ErrQuota reports an event refused by its tenant's ingest quota. It is the
// server's sentinel, so the shared ingest front counts quota refusals apart.
var ErrQuota = server.ErrQuota

// Ingest validates, routes and enqueues one event — the programmatic form
// of POST /v1/jobs. Validation and tenant-key errors mean the event was
// malformed; ErrQuota means the tenant is over its window; the server
// sentinels (ErrQueueFull, ErrDraining, ErrWAL) pass through from the
// target shard.
func (c *Cluster) Ingest(ev server.Event) error {
	tenant, err := c.Tenant(ev)
	if err != nil {
		c.rejected.Add(1)
		return err
	}
	ts := c.stats(tenant)
	if err := c.dec.Validate(ev); err != nil {
		c.rejected.Add(1)
		c.shards[ts.shard].RejectedLine()
		return err
	}
	if !ts.allow(c.clock.Now(), c.cfg.QuotaLimit, c.cfg.QuotaWindow) {
		ts.quotaRejections.Add(1)
		c.quotaRejections.Add(1)
		return fmt.Errorf("%w: tenant %q over %d events per %s", ErrQuota, tenant, c.cfg.QuotaLimit, c.cfg.QuotaWindow)
	}
	if err := c.shards[ts.shard].Enqueue(ev); err != nil {
		return err
	}
	ts.ingested.Add(1)
	return nil
}
