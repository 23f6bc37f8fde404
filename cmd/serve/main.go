// Command serve runs the online rule-mining service: a daemon that ingests
// job-completion events over HTTP, continuously re-mines a sliding window,
// and answers operator queries with pruned keyword rule tables and rule
// drift — the serving-side counterpart of the batch cmd/armine.
//
// Endpoints:
//
//	POST /v1/jobs        ingest NDJSON (default) or CSV (Content-Type: text/csv)
//	GET  /v1/rules       current rules; ?keyword=failed&kind=cause for analyses,
//	                     ?sort=lift|support|confidence, ?min_lift= / ?min_support=
//	                     floors, ?offset=/?limit= pagination; ETag + Cache-Control
//	GET  /v1/drift       rules appeared/vanished between the last two snapshots
//	GET  /v1/drift/watch SSE push of drift events on every publish (?mode=poll
//	                     for long-poll; resume via Last-Event-ID = snapshot seq)
//	GET  /healthz        liveness plus snapshot age; 503 once draining begins
//	GET  /metrics        ingest/mining counters as flat JSON
//	                     (?format=prometheus for the text scrape format)
//
// Example against a generated trace:
//
//	tracegen -trace pai -jobs 20000 -out /tmp/t
//	serve -addr :8080 -state-dir /var/lib/armine &
//	# join scheduler+node rows into NDJSON with your tool of choice, or
//	# post the scheduler CSV directly:
//	curl -sS -X POST -H 'Content-Type: text/csv' \
//	     --data-binary @/tmp/t/pai_scheduler.csv localhost:8080/v1/jobs
//	curl -sS 'localhost:8080/v1/rules?keyword=failed&kind=cause'
//
// With -state-dir the daemon is restartable without losing fitted state:
// the mining loop checkpoints the bin edges, activity tiers, prevalence
// counts, item catalog and the sliding window to an atomically replaced
// file (after every publish and again when SIGTERM drains the queue), and
// the next start restores from it — same window, same rules, no
// re-bootstrap. -keep exempts item names (e.g. status=failed) from the
// online prevalence drop so the keyword under study cannot be deleted by a
// failure-heavy window.
//
// With -wal-dir (which needs -state-dir) every accepted event is
// additionally framed into a write-ahead log before it is acknowledged, and
// a restart replays the WAL tail on top of the checkpoint — a kill -9
// between checkpoints loses nothing (-fsync always) or at most the last
// 100 ms sync interval (-fsync interval, the default). -mine-timeout arms a
// watchdog that abandons a hung re-mine and keeps serving the last good
// snapshot, marked stale, while /healthz reports the degraded state.
//
// Every mine builds its FP-tree afresh from the captured window; rule
// generation, the drift diff and the query index are O(rules) anyway, and a
// tree maintained across mines measured no faster end to end. Each mine
// runs FP-Growth on one goroutine. -pprof-addr exposes net/http/pprof on a
// separate listener for profiling the mine loop in production.
//
// With -spec generic the encoder is derived from flags instead of the
// canonical PAI shape: -numeric columns are quartile-binned (-zero /
// -spike subsets get their special bins), -tier columns are
// activity-tiered, -bool columns parse as booleans in CSV bodies, and
// -skip columns are ignored.
//
// With -shards N (N > 1) the daemon becomes an in-process sharded
// multi-tenant deployment: events route to one of N independent shard
// miners by FNV-hashing the -tenant-field value (records without the field
// go to the reserved "default" tenant), each shard keeps its own window,
// encoder state and shard-<i> checkpoint/WAL subdirectories, and
// -tenant-quota caps accepted events per tenant per -quota-window. GET
// /v1/rules then serves the merged global view — the union of the shard
// windows, mined by the single server's code — and GET
// /v1/tenants/{id}/rules serves one tenant's shard view. /healthz and
// /metrics aggregate across shards; /metrics?format=prometheus emits the
// cluster, per-tenant and per-shard counters in scrape format.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // profiling endpoints, exposed only via -pprof-addr
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/server"
	"repro/internal/shard"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	spec := flag.String("spec", "pai", "encoder spec: pai or generic")
	window := flag.Int("window", 5000, "sliding window size in jobs")
	minSupport := flag.Float64("min-support", 0.05, "minimum itemset support")
	minLift := flag.Float64("min-lift", 1.5, "minimum rule lift")
	maxLen := flag.Int("max-len", 5, "maximum itemset length")
	cLift := flag.Float64("c-lift", 1.5, "pruning lift slack C_lift")
	cSupp := flag.Float64("c-supp", 1.5, "pruning support slack C_supp")
	mineInterval := flag.Duration("mine-interval", 2*time.Second, "re-mine cadence")
	mineBatch := flag.Int("mine-batch", 1000, "re-mine after this many new jobs; whole batches that queue up during a mine are mined together")
	pprofAddr := flag.String("pprof-addr", "", "listen address for net/http/pprof profiles (e.g. localhost:6060); empty disables")
	queue := flag.Int("queue", 8192, "ingest queue capacity (full queue => 429)")
	bootstrap := flag.Int("bootstrap", 500, "jobs sampled before bin edges are fitted")
	stateDir := flag.String("state-dir", "", "directory for the durable checkpoint; empty disables checkpoint/restore")
	walDir := flag.String("wal-dir", "", "directory for the write-ahead log of accepted events (needs -state-dir); empty disables the WAL")
	fsync := flag.String("fsync", "interval", "WAL durability: always (sync every append), interval (every 100ms), or never")
	mineTimeout := flag.Duration("mine-timeout", 0, "abandon a mine running longer than this and serve the last snapshot as stale (0 disables)")
	keep := flag.String("keep", "", "comma-separated item names exempt from the prevalence drop (e.g. status=failed)")
	numeric := flag.String("numeric", "", "generic spec: comma-separated numeric fields to quartile-bin")
	zeros := flag.String("zero", "", "generic spec: numeric fields given a zero bin")
	spikes := flag.String("spike", "", "generic spec: numeric fields given a Std spike bin")
	tiers := flag.String("tier", "", "generic spec: fields to activity-tier")
	bools := flag.String("bool", "", "generic spec: fields parsed as booleans in CSV bodies")
	skips := flag.String("skip", "job_id,submit_s", "fields excluded from encoding")
	shards := flag.Int("shards", 1, "shard miner count; >1 serves a sharded multi-tenant deployment")
	tenantField := flag.String("tenant-field", "tenant", "event field carrying the tenant key in sharded mode")
	tenantQuota := flag.Int("tenant-quota", 0, "max accepted events per tenant per -quota-window; 0 disables quotas")
	quotaWindow := flag.Duration("quota-window", time.Minute, "tenant quota accounting window")
	flag.Parse()

	cfg, err := buildConfig(options{
		spec: *spec, window: *window,
		minSupport: *minSupport, minLift: *minLift, maxLen: *maxLen,
		cLift: *cLift, cSupp: *cSupp,
		mineInterval: *mineInterval, mineBatch: *mineBatch,
		queue: *queue, bootstrap: *bootstrap,
		stateDir: *stateDir, keep: splitList(*keep),
		walDir: *walDir, fsync: *fsync, mineTimeout: *mineTimeout,
		numeric: splitList(*numeric), zeros: splitList(*zeros), spikes: splitList(*spikes),
		tiers: splitList(*tiers), bools: splitList(*bools), skips: splitList(*skips),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}
	if *pprofAddr != "" {
		// The profiling endpoints live on their own listener, never the
		// service address: importing net/http/pprof registers only on
		// http.DefaultServeMux, which the API handlers don't use.
		go func() {
			fmt.Printf("serve: pprof on http://%s/debug/pprof/\n", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "serve: pprof listener:", err)
			}
		}()
	}
	// Any multi-tenant knob selects cluster mode: quotas need the tenant
	// router even with a single shard behind it.
	var ccfg *shard.Config
	if *shards > 1 || *tenantQuota > 0 {
		ccfg = &shard.Config{
			Shards:      *shards,
			TenantField: *tenantField,
			QuotaLimit:  *tenantQuota,
			QuotaWindow: *quotaWindow,
			Shard:       cfg,
		}
	}
	if err := start(*addr, cfg, ccfg); err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}
}

type options struct {
	spec                                 string
	window, maxLen, mineBatch            int
	queue, bootstrap                     int
	minSupport, minLift, cLift, cSupp    float64
	mineInterval, mineTimeout            time.Duration
	stateDir, walDir, fsync              string
	keep                                 []string
	numeric, zeros, spikes, tiers, bools []string
	skips                                []string
}

func buildConfig(o options) (server.Config, error) {
	// The WAL is truncated only behind a checkpoint, so without a state dir
	// it would grow with the stream and every restart would replay it whole.
	if o.walDir != "" && o.stateDir == "" {
		return server.Config{}, fmt.Errorf("-wal-dir needs -state-dir: the log is truncated only behind a checkpoint")
	}
	cfg := server.Config{
		WindowSize:   o.window,
		MinSupport:   o.minSupport,
		MinLift:      o.minLift,
		MaxLen:       o.maxLen,
		CLift:        o.cLift,
		CSupp:        o.cSupp,
		Bootstrap:    o.bootstrap,
		MineInterval: o.mineInterval,
		MineBatch:    o.mineBatch,
		QueueSize:    o.queue,
		StateDir:     o.stateDir,
		KeepItems:    o.keep,
		WALDir:       o.walDir,
		Fsync:        o.fsync,
		MineTimeout:  o.mineTimeout,
	}
	switch o.spec {
	case "pai":
		cfg.Spec = server.PAISpec()
		if len(o.skips) > 0 {
			cfg.Spec.Skip = o.skips
		}
	case "generic":
		cfg.Spec = genericSpec(o)
	default:
		return server.Config{}, fmt.Errorf("unknown spec %q (want pai or generic)", o.spec)
	}
	return cfg, nil
}

// genericSpec derives an encoder spec from flags, mirroring armine's auto
// pipeline: quartile bins everywhere, zero/spike bins and tiers where asked.
func genericSpec(o options) server.Spec {
	zero := make(map[string]bool, len(o.zeros))
	for _, z := range o.zeros {
		zero[z] = true
	}
	spike := make(map[string]bool, len(o.spikes))
	for _, s := range o.spikes {
		spike[s] = true
	}
	spec := server.Spec{Bools: o.bools, Skip: o.skips}
	for _, f := range o.numeric {
		n := server.NumericSpec{Field: f, ZeroSpecial: zero[f]}
		if spike[f] {
			n.SpikeThreshold = 0.3
		}
		spec.Numeric = append(spec.Numeric, n)
	}
	for _, t := range o.tiers {
		spec.Tiers = append(spec.Tiers, server.TierSpec{Field: t})
	}
	return spec
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// start builds the single server — or, when ccfg is non-nil, the shard
// cluster over cfg — announces it, and serves it until a signal.
func start(addr string, cfg server.Config, ccfg *shard.Config) error {
	if ccfg == nil {
		s, err := server.New(cfg)
		if err != nil {
			return err
		}
		fmt.Printf("serve: window %d, mine every %s or %d jobs\n", cfg.WindowSize, cfg.MineInterval, cfg.MineBatch)
		announceDurability(cfg, "")
		return run(addr, s.Handler(), s.Stop, s.Snapshot)
	}
	c, err := shard.New(*ccfg)
	if err != nil {
		return err
	}
	fmt.Printf("serve: %d shards, tenant field %q\n", c.Shards(), ccfg.TenantField)
	if ccfg.QuotaLimit > 0 {
		fmt.Printf("serve: tenant quota %d events per %s\n", ccfg.QuotaLimit, ccfg.QuotaWindow)
	}
	announceDurability(cfg, "per-shard ")
	merged := func() *server.Snapshot {
		snap, _ := c.Merged()
		return snap
	}
	return run(addr, c.Handler(), c.Stop, merged)
}

// announceDurability prints where checkpoints and the WAL live; scope
// qualifies them for the cluster, whose shards each keep their own.
func announceDurability(cfg server.Config, scope string) {
	if cfg.StateDir != "" {
		fmt.Printf("serve: %sdurable state in %s (checkpoint after every publish and at drain)\n", scope, cfg.StateDir)
	}
	if cfg.WALDir != "" {
		fmt.Printf("serve: %swrite-ahead log in %s (fsync=%s)\n", scope, cfg.WALDir, cfg.Fsync)
	}
}

// run serves h on addr until SIGINT or SIGTERM, then drains: stop flushes
// the mining loops, and final is the snapshot reported on the way out.
func run(addr string, h http.Handler, stop func(context.Context) error, final func() *server.Snapshot) error {
	httpSrv := &http.Server{Addr: addr, Handler: h}
	errCh := make(chan error, 1)
	go func() {
		if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errCh <- err
		}
	}()
	fmt.Printf("serve: listening on %s\n", addr)

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	fmt.Println("serve: shutting down, draining ingest queue")
	shutdownCtx, cancelShutdown := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancelShutdown()
	// Drain before Shutdown: stop closes the watch hubs, ending the open
	// /v1/drift/watch streams — otherwise Shutdown would wait its whole
	// timeout on them.
	if err := stop(shutdownCtx); err != nil {
		return err
	}
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		return err
	}
	if snap := final(); snap != nil {
		fmt.Printf("serve: final snapshot seq=%d rules=%d window=%d observed=%d\n",
			snap.Seq, len(snap.View.Rules), snap.View.WindowLen, snap.View.Total)
	}
	return nil
}
