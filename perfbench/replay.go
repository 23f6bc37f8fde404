package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/faultinject"
	"repro/internal/fpgrowth"
	"repro/internal/itemset"
	"repro/internal/rules"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/son"
	"repro/internal/stream"
	"repro/internal/transaction"
	"repro/internal/wal"
)

// replayPointCount is how many publish points the traced run replays
// through every stage (after one untimed point that seeds the diffs).
const replayPointCount = 3

// mergeShards is the shard count of the cluster replay on single-server
// workloads: their events are split by tenant as a 3-shard cluster, each
// shard holding a third of the window, would hold them.
const mergeShards = 3

// replayKeywords are the analyses the index replay resolves and prunes.
var replayKeywords = []string{"failed", "gpu_type=T4", "user_tier=frequent"}

type replayInput struct {
	w          *workload
	cfg        server.Config
	events     []server.Event // every accepted event, preload first
	preload    int
	bodies     [][]byte // load-phase request bodies as sent
	ctype      string
	points     [][]int // per publish point, per-shard cumulative event counts
	workdir    string
	mergedFull []byte // the live final /v1/rules body (the merged view when sharded)
}

// replay feeds the run's own traffic and published windows through each
// layer's public entry points, one span per call, and fills the per-layer
// metrics. The fixture is an in-process server.Server per shard fed the
// accepted events with a window as long as the run: its Snapshot's
// View.Window holds every transaction the live server encoded, so the
// window behind any published observed_total is a slice of it.
func replay(tr *tracer, in replayInput, m map[string]float64) error {
	if len(in.points) < 2 {
		return fmt.Errorf("replay needs two publish points, the run produced %d", len(in.points))
	}
	if err := replayDecode(tr, in, m); err != nil {
		return err
	}
	if err := replayWAL(tr, in, m); err != nil {
		return err
	}
	fixtures, err := buildFixtures(tr, in)
	if err != nil {
		return err
	}
	m["ingest.enqueue_us"] = tr.perItemUS("server.Server.Enqueue")
	if len(fixtures) > 1 {
		wins := make([][]itemset.Set, len(fixtures))
		cats := make([]*itemset.Catalog, len(fixtures))
		for s, f := range fixtures {
			wins[s] = f.Window[max(0, len(f.Window)-in.w.window):]
			cats[s] = f.Catalog
		}
		if err := gateMergedRules(in.mergedFull, wins, cats, in.cfg); err != nil {
			return err
		}
	}
	if err := replayPublishes(tr, in, fixtures, m); err != nil {
		return err
	}
	if err := replayCluster(tr, in, m); err != nil {
		return err
	}
	us := func(name string) float64 { return median(tr.durMS(name)) * 1e3 }
	m["index.analysis_miss_ms"] = median(tr.durMS("server.RuleIndex.Analysis miss"))
	m["index.analysis_hit_us"] = us("server.RuleIndex.Analysis hit")
	m["index.resolve_us"] = us("server.RuleIndex.Resolve")
	m["query.rules_us"] = us("server.WriteRules plain")
	m["query.sort_us"] = us("server.WriteRules sort")
	m["query.keyword_us"] = us("server.WriteRules keyword")
	m["query.drift_us"] = us("server.WriteDrift keyword")
	return nil
}

func replayDecode(tr *tracer, in replayInput, m map[string]float64) error {
	dec := server.NewDecoder(in.cfg.Spec)
	for _, body := range in.bodies {
		n := bytes.Count(body, []byte{'\n'})
		if in.w.csv {
			n-- // header
		}
		var derr error
		tr.do("server.Decoder.Decode", 0, n, func(int) {
			_, derr = dec.Decode(in.ctype, bytes.NewReader(body),
				func(int, server.Event) bool { return true },
				func(line int, err error) { derr = fmt.Errorf("line %d: %w", line, err) })
		})
		if derr != nil {
			return fmt.Errorf("decode replay: %w", derr)
		}
	}
	m["ingest.decode_us_per_event"] = tr.perItemUS("server.Decoder.Decode")
	return nil
}

// replayWAL appends the load phase's accepted events in POST-sized groups,
// syncing after each group as the interval policy would.
func replayWAL(tr *tracer, in replayInput, m map[string]float64) error {
	dir := filepath.Join(in.workdir, "replay", "wal")
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	wl, err := wal.Open(wal.Options{Dir: dir, Sync: wal.SyncNever})
	if err != nil {
		return err
	}
	events := in.events[in.preload:]
	payloads := make([][]byte, len(events))
	for i, ev := range events {
		if payloads[i], err = json.Marshal(ev); err != nil {
			return err
		}
	}
	group := in.w.postEvents
	for lo := 0; lo < len(payloads); lo += group {
		batch := payloads[lo:min(lo+group, len(payloads))]
		var aerr error
		tr.do("wal.WAL.Append", 0, len(batch), func(int) {
			for _, p := range batch {
				if _, err := wl.Append(p); err != nil && aerr == nil {
					aerr = err
				}
			}
		})
		tr.do("wal.WAL.Sync", 0, 0, func(int) {
			if err := wl.Sync(); err != nil && aerr == nil {
				aerr = err
			}
		})
		if aerr != nil {
			return aerr
		}
	}
	if err := wl.Close(); err != nil {
		return err
	}
	m["wal.append_us"] = tr.perItemUS("wal.WAL.Append")
	m["wal.sync_ms"] = median(tr.durMS("wal.WAL.Sync"))
	m["wal.bytes_per_record"] = dirSize(dir) / float64(max(len(payloads), 1))
	return nil
}

// buildFixtures runs each shard's accepted events through an in-process
// server whose window spans the whole run, timing Server.Enqueue, and
// returns each shard's final view. With a durable workload the fixture logs
// to a WAL too, so Enqueue is timed on the path the live server takes.
func buildFixtures(tr *tracer, in replayInput) ([]*stream.View, error) {
	shards := in.w.shardCount()
	per := make([][]server.Event, shards)
	for _, ev := range in.events {
		s := 0
		if shards > 1 {
			s = shardOf(ev, shards)
		}
		per[s] = append(per[s], ev)
	}
	views := make([]*stream.View, shards)
	for s, evs := range per {
		cfg := in.cfg
		cfg.WindowSize = max(len(evs), 1)
		cfg.MineBatch = math.MaxInt32
		cfg.MineInterval = 24 * time.Hour
		cfg.QueueSize = len(evs) + 1
		cfg.StateDir, cfg.WALDir = "", ""
		if in.w.durable {
			cfg.WALDir = filepath.Join(in.workdir, "replay", "fixture-wal-"+strconv.Itoa(s))
			if err := os.RemoveAll(cfg.WALDir); err != nil {
				return nil, err
			}
		}
		srv, err := server.New(cfg)
		if err != nil {
			return nil, err
		}
		for lo := 0; lo < len(evs); lo += in.w.postEvents {
			batch := evs[lo:min(lo+in.w.postEvents, len(evs))]
			var eerr error
			tr.do("server.Server.Enqueue", 0, len(batch), func(int) {
				for _, ev := range batch {
					if err := srv.Enqueue(ev); err != nil && eerr == nil {
						eerr = err
					}
				}
			})
			if eerr != nil {
				return nil, fmt.Errorf("fixture enqueue: %w", eerr)
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		err = srv.Stop(ctx)
		cancel()
		if err != nil {
			return nil, err
		}
		snap := srv.Snapshot()
		if snap == nil || snap.View.Total != len(evs) || len(snap.View.Window) != len(evs) {
			return nil, fmt.Errorf("fixture %d did not encode its %d events one transaction each", s, len(evs))
		}
		views[s] = snap.View
	}
	return views, nil
}

// replayPublishes re-runs every publish point on each shard's stream
// (observe, capture, mine, diff, index, watch publish), the same window
// through fpgrowth and rules directly and through a maintained incremental
// tree, and, for one server, the read path on the snapshot clients query.
func replayPublishes(tr *tracer, in replayInput, fixtures []*stream.View, m map[string]float64) error {
	cfg, window := in.cfg, in.w.window
	minSupport, maxLen, minLift := thresholds(cfg)
	// Each shard replays its own stream: a miner and a maintained tree fed
	// its fixture's transactions, and the rules of its last publish.
	type shardState struct {
		fixture  *stream.View
		miner    *stream.Miner
		inc      *fpgrowth.Incremental
		observed int
		rules    []rules.Rule
		rebuilds int64 // tree rebuilds before the first timed point
	}
	shards := make([]*shardState, len(fixtures))
	for s, f := range fixtures {
		miner, err := stream.New(nil, stream.Config{WindowSize: window, MinSupport: cfg.MinSupport, MaxLen: cfg.MaxLen, MinLift: cfg.MinLift, Workers: cfg.Workers})
		if err != nil {
			return err
		}
		shards[s] = &shardState{fixture: f, miner: miner, inc: fpgrowth.NewIncremental(fpgrowth.IncOptions{})}
	}
	hub := server.NewWatchHub(0)
	_, _, unsubscribe := hub.Subscribe(0)
	defer unsubscribe()
	var appeared, vanished, itemsets, ruleCount, perItemset, eventBytes []float64
	var deadFrac float64
	seq := int64(0)

	for k, pt := range in.points {
		timed := k > 0
		if k == 1 {
			for _, sh := range shards {
				sh.rebuilds = sh.inc.Stats().Rebuilds
			}
		}
		// Every shard whose window moved since the previous point publishes
		// (all of them at the untimed first point). The timed stages follow
		// the one that moved most: the burst's shard on a cluster, the only
		// shard otherwise.
		timedShard := -1
		for s, sh := range shards {
			if timed && pt[s] > sh.observed && (timedShard < 0 || pt[s]-sh.observed > pt[timedShard]-shards[timedShard].observed) {
				timedShard = s
			}
		}
		var snap *server.Snapshot
		for s, sh := range shards {
			if timed && pt[s] == sh.observed {
				continue
			}
			on := s == timedShard
			step := func(name string, fn func()) {
				if on {
					tr.do(name, 0, 0, func(int) { fn() })
				} else {
					fn()
				}
			}
			fv, target := sh.fixture, pt[s]
			batch := make([][]string, 0, target-sh.observed)
			for j := sh.observed; j < target; j++ {
				batch = append(batch, fv.Catalog.Names(fv.Window[j]))
			}
			var incErr error
			observe := func(int) {
				for _, names := range batch {
					sh.miner.ObserveNames(names...)
				}
			}
			slide := func(int) {
				for j := sh.observed; j < target; j++ {
					if j >= window {
						if err := sh.inc.Remove(fv.Window[j-window]); err != nil && incErr == nil {
							incErr = err
						}
					}
					sh.inc.Add(fv.Window[j])
				}
			}
			if on {
				tr.do("stream.Miner.ObserveNames", 0, len(batch), observe)
				tr.do("fpgrowth.Incremental.Add+Remove", 0, len(batch), slide)
			} else {
				observe(0)
				slide(0)
			}
			if incErr != nil {
				return fmt.Errorf("incremental replay: %w", incErr)
			}
			sh.observed = target

			var pv *stream.PendingView
			var view *stream.View
			step("stream.Miner.BeginView", func() { pv = sh.miner.BeginView() })
			step("stream.PendingView.Mine", func() { view = pv.Mine() })
			if on {
				db := transaction.NewDB(view.Catalog)
				for _, txn := range view.Window {
					db.AddCanonical(txn)
				}
				opts := fpgrowth.Options{MinCount: minCount(minSupport, db.Len()), MaxLen: maxLen, Workers: cfg.Workers}
				var frequent []itemset.Frequent
				var rs []rules.Rule
				step("fpgrowth.Mine", func() { frequent = fpgrowth.Mine(db, opts) })
				opts.Workers = 1
				step("fpgrowth.Mine w1", func() { fpgrowth.Mine(db, opts) })
				step("rules.Generate", func() { rs = rules.Generate(frequent, db.Len(), rules.Options{MinLift: minLift, Workers: cfg.Workers}) })
				step("rules.Generate w1", func() { rules.Generate(frequent, db.Len(), rules.Options{MinLift: minLift, Workers: 1}) })
				itemsets = append(itemsets, float64(len(frequent)))
				ruleCount = append(ruleCount, float64(len(rs)))
				perItemset = append(perItemset, float64(len(rs))/float64(max(len(frequent), 1)))
			}
			var delta stream.Delta
			var ix *server.RuleIndex
			step("stream.Diff", func() { delta = stream.Diff(sh.rules, view.Rules) })
			step("server.NewRuleIndex", func() { ix = server.NewRuleIndex(view) })
			seq++
			snap = &server.Snapshot{Seq: seq, PrevSeq: seq - 1, MinedAt: time.Now(), View: view, Index: ix, Delta: delta}
			step("server.WatchHub.Publish", func() { hub.Publish(snap) })
			sh.rules = view.Rules
			if !on {
				sh.inc.Maintain()
				continue
			}
			appeared = append(appeared, float64(len(delta.Appeared)))
			vanished = append(vanished, float64(len(delta.Vanished)))
			rec := httptest.NewRecorder()
			server.ServeWatch(rec, httptest.NewRequest("GET", fmt.Sprintf("/v1/drift/watch?mode=poll&last_event_id=%d", seq-1), nil), hub)
			eventBytes = append(eventBytes, float64(rec.Body.Len()))

			var ft *fpgrowth.FrozenTree
			step("fpgrowth.Incremental.Maintain", func() { sh.inc.Maintain() })
			step("fpgrowth.Incremental.Freeze", func() { ft = sh.inc.Freeze() })
			step("fpgrowth.FrozenTree.Mine", func() {
				ft.Mine(fpgrowth.Options{MinCount: minCount(minSupport, ft.Len()), MaxLen: maxLen, Workers: cfg.Workers})
			})
			st := sh.inc.Stats()
			deadFrac = float64(st.Dead) / float64(max(st.Nodes, 1))
		}
		// A cluster's clients read the merged view; replayCluster times
		// that read path.
		if timed && len(fixtures) == 1 {
			if err := replayReads(tr, snap); err != nil {
				return err
			}
		}
	}

	ms := func(name string) float64 { return median(tr.durMS(name)) }
	m["stream.observe_us_per_txn"] = tr.perItemUS("stream.Miner.ObserveNames")
	m["stream.begin_view_ms"] = ms("stream.Miner.BeginView")
	m["stream.mine_ms"] = ms("stream.PendingView.Mine")
	m["stream.diff_ms"] = ms("stream.Diff")
	m["stream.appeared"] = median(appeared)
	m["stream.vanished"] = median(vanished)
	m["fpgrowth.mine_ms"] = ms("fpgrowth.Mine")
	m["fpgrowth.mine_ms_w1"] = ms("fpgrowth.Mine w1")
	m["fpgrowth.itemsets"] = median(itemsets)
	m["fpgrowth.inc_delta_us_per_txn"] = tr.perItemUS("fpgrowth.Incremental.Add+Remove")
	m["fpgrowth.inc_maintain_ms"] = ms("fpgrowth.Incremental.Maintain")
	m["fpgrowth.inc_freeze_ms"] = ms("fpgrowth.Incremental.Freeze")
	m["fpgrowth.inc_mine_ms"] = ms("fpgrowth.FrozenTree.Mine")
	rebuilds := int64(0)
	for _, sh := range shards {
		rebuilds += sh.inc.Stats().Rebuilds - sh.rebuilds
	}
	m["fpgrowth.inc_rebuilds"] = float64(rebuilds)
	m["fpgrowth.inc_dead_frac"] = deadFrac
	m["rules.generate_ms"] = ms("rules.Generate")
	m["rules.generate_ms_w1"] = ms("rules.Generate w1")
	m["rules.count"] = median(ruleCount)
	m["rules.per_itemset"] = median(perItemset)
	m["index.build_ms"] = ms("server.NewRuleIndex")
	m["watch.publish_ms"] = ms("server.WatchHub.Publish")
	m["watch.event_bytes"] = median(eventBytes)
	m["watch.dropped_subs"] = float64(1 - hub.Subscribers())
	return nil
}

// replayCluster drives an in-process shard.Cluster through the run's
// publish points and times the program's own merge. Events enter through
// Cluster.Ingest one shard at a time; a tick of a manual clock makes that
// shard mine and publish, and Cluster.Merged, called as the shard
// publishes, is the shard.Cluster.Merged span. The cluster's notifier wakes
// on the same publish, so whichever of the two takes the merge lock first
// remerges and the other waits for it: either way the span runs from the
// shard publish to a merged view that covers it. son.MineShards is then
// timed alone on the shard windows that merge read, and, on a cluster
// workload, the read path on the merged snapshot. A single-server
// workload's events are split by tenant over mergeShards shards.
func replayCluster(tr *tracer, in replayInput, m map[string]float64) error {
	shards, window := in.w.shardCount(), in.w.window
	if shards == 1 {
		shards, window = mergeShards, in.w.window/mergeShards
	}
	clock := faultinject.NewManualClock(time.Now())
	cfg := in.cfg
	cfg.WindowSize = window
	cfg.MineBatch = math.MaxInt32
	cfg.MineInterval = time.Hour
	cfg.QueueSize = len(in.events) + 1
	cfg.StateDir, cfg.WALDir = "", ""
	cfg.Clock = clock
	c, err := shard.New(shard.Config{Shards: shards, TenantField: tenantField, Shard: cfg})
	if err != nil {
		return err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		defer cancel()
		_ = c.Stop(ctx) // every measurement is taken; nothing is left to mine
	}()
	published := make(chan struct{}, 1)
	for s := 0; s < shards; s++ {
		off := c.Shard(s).Watch().NotifyOn(published)
		defer off()
	}

	// Route every event as the cluster does.
	owner := make([]int, len(in.events))
	perShard := make([]float64, shards)
	for i, ev := range in.events {
		tenant, err := c.Tenant(ev)
		if err != nil {
			return err
		}
		owner[i] = c.ShardFor(tenant)
		perShard[owner[i]]++
	}
	minSupport, maxLen, _ := thresholds(cfg)
	fed := make([]int, shards)
	next, union, publishes := 0, 0, 0
	var seq0, seq int64
	var deltas []float64
	for k, pt := range in.points {
		timed := k > 0
		n := sumInts(pt) // the point's prefix of in.events
		batches := make([][]server.Event, shards)
		for ; next < n; next++ {
			batches[owner[next]] = append(batches[owner[next]], in.events[next])
		}
		var merged *server.Snapshot
		for s, batch := range batches {
			if len(batch) == 0 {
				continue
			}
			for lo := 0; lo < len(batch); lo += in.w.postEvents {
				part := batch[lo:min(lo+in.w.postEvents, len(batch))]
				var ierr error
				tr.do("shard.Cluster.Ingest", 0, len(part), func(int) {
					for _, ev := range part {
						if err := c.Ingest(ev); err != nil && ierr == nil {
							ierr = err
						}
					}
				})
				if ierr != nil {
					return fmt.Errorf("cluster ingest replay: %w", ierr)
				}
			}
			fed[s] += len(batch)
			if err := publishShard(c.Shard(s), clock, fed[s], published); err != nil {
				return fmt.Errorf("cluster replay, shard %d: %w", s, err)
			}
			merge := func(int) { merged, _ = c.Merged() }
			if timed {
				tr.do("shard.Cluster.Merged", 0, 0, merge)
				deltas = append(deltas, float64(len(batch)))
				publishes++
			} else {
				merge(0)
			}
			if want := sumInts(fed); merged == nil || merged.View.Total != want {
				return fmt.Errorf("cluster replay: the merged view does not cover the %d events its shards published", want)
			}
		}
		if merged == nil {
			continue
		}
		if k == 0 {
			seq0 = merged.Seq
		}
		seq, union = merged.Seq, merged.View.WindowLen
		if !timed {
			continue
		}
		dbs := make([]*transaction.DB, shards)
		cat := itemset.NewCatalog()
		total := 0
		for s := range dbs {
			dbs[s] = transaction.NewDB(cat)
			if snap := c.Shard(s).Snapshot(); snap != nil {
				for _, txn := range snap.View.Window {
					dbs[s].AddNames(snap.View.Catalog.Names(txn)...)
				}
			}
			total += dbs[s].Len()
		}
		tr.do("son.MineShards", 0, total, func(int) {
			son.MineShards(dbs, son.Options{MinCount: minCount(minSupport, total), MaxLen: maxLen, Workers: cfg.Workers})
		})
		if in.w.shardCount() > 1 {
			if err := replayReads(tr, merged); err != nil {
				return err
			}
		}
	}
	m["shard.ingest_us"] = tr.perItemUS("shard.Cluster.Ingest")
	lo, hi := perShard[0], perShard[0]
	for _, count := range perShard {
		lo, hi = min(lo, count), max(hi, count)
	}
	m["shard.skew"] = hi / max(lo, 1)
	m["shard.remerge_ms"] = median(tr.durMS("shard.Cluster.Merged"))
	m["son.mine_shards_ms"] = median(tr.durMS("son.MineShards"))
	m["shard.union_txns"] = float64(union)
	m["shard.delta_txns"] = median(deltas)
	m["shard.merges_per_publish"] = float64(seq-seq0) / float64(max(publishes, 1))
	return nil
}

// publishShard makes one cluster shard mine everything routed to it and
// waits for the snapshot that covers all total of its events. The shard
// mines only on a tick of the manual clock, so the tick waits until its
// queue is drained; a tick is repeated if the shard had not re-armed its
// timer yet.
func publishShard(srv *server.Server, clock *faultinject.ManualClock, total int, published chan struct{}) error {
	deadline := time.Now().Add(2 * time.Minute)
	for {
		if depth, _ := srv.Metrics()["queue_depth"].(int); depth == 0 {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("queue not drained")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case <-published: // an earlier publish
	default:
	}
	for {
		clock.Advance(time.Hour)
		select {
		case <-published:
		case <-time.After(100 * time.Millisecond):
		}
		if snap := srv.Snapshot(); snap != nil && snap.View.Total == total {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("no snapshot covers its %d events", total)
		}
	}
}

func sumInts(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}

// replayReads times the read path on one published snapshot: keyword
// resolution and pruned analyses on its fresh index (first call a miss,
// second a hit), then each query shape through the shared handlers.
func replayReads(tr *tracer, snap *server.Snapshot) error {
	for _, kw := range replayKeywords {
		var item itemset.Item
		var rerr error
		tr.do("server.RuleIndex.Resolve", 0, 0, func(int) { item, _, rerr = snap.Index.Resolve(kw) })
		if rerr != nil {
			continue // not in this window's catalog
		}
		tr.do("server.RuleIndex.Analysis miss", 0, 0, func(int) { snap.Index.Analysis(item, 1.5, 1.5) })
		tr.do("server.RuleIndex.Analysis hit", 0, 0, func(int) { snap.Index.Analysis(item, 1.5, 1.5) })
	}
	queries := []struct{ name, path string }{
		{"server.WriteRules plain", "/v1/rules?limit=50"},
		{"server.WriteRules sort", "/v1/rules?limit=50&sort=support&min_lift=2"},
		{"server.WriteRules keyword", "/v1/rules?keyword=failed&limit=50"},
		{"server.WriteDrift keyword", "/v1/drift?keyword=failed"},
	}
	for rep := 0; rep < 5; rep++ {
		for _, q := range queries {
			rec := httptest.NewRecorder()
			req := httptest.NewRequest("GET", q.path, nil)
			tr.do(q.name, 0, 0, func(int) {
				if route(q.path) == "/v1/drift" {
					server.WriteDrift(rec, req, snap, server.DriftParams{})
				} else {
					server.WriteRules(rec, req, snap, server.RulesParams{Shard: -1})
				}
			})
			if rec.Code != 200 {
				return fmt.Errorf("replayed %s answered %d: %s", q.path, rec.Code, rec.Body.Bytes())
			}
		}
	}
	return nil
}
