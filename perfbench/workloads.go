package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/server"
)

// shape is one GET request form a workload's query stream sends. Each
// query draws its shape uniformly from the workload's shapes.
type shape struct {
	path string
	// revalidate sends If-None-Match with the ETag this shape last saw, as a
	// caching client would.
	revalidate bool
}

// workload is one traffic mix. Everything not set here runs at cmd/serve's
// defaults; NOTES.md gives the reason for each choice.
type workload struct {
	name         string
	window       int
	mineBatch    int
	mineInterval time.Duration
	shards       int
	durable      bool // -wal-dir and -state-dir (default -fsync interval)
	csv          bool
	rate         float64       // ingest events/s averaged over the load phase
	postEvents   int           // events per POST
	burstPosts   int           // >0: ingest arrives in bursts of this many POSTs
	burstGap     time.Duration // between the POSTs of one burst
	burstEvery   time.Duration
	queryRate    float64 // GETs/s on the second connection: a twentieth of the measured read saturation
	shapes       []shape
}

var workloads = map[string]*workload{
	"ingest-steady": {
		// Mines by count only, every 1000 events: a tick firing mid-batch
		// would reset the count and make both set-up and visibility
		// bimodal.
		name: "ingest-steady", window: 5000, mineBatch: 1000, mineInterval: time.Minute,
		durable: true, rate: 650, postEvents: 50, queryRate: 72,
		// The freshness probe: the lightest read there is, one rule.
		shapes: []shape{{path: "/v1/rules?limit=1"}},
	},
	"query-mix": {
		name: "query-mix", window: 5000, mineBatch: 5000, mineInterval: 2 * time.Second,
		rate: 250, postEvents: 10, queryRate: 72,
		shapes: []shape{
			{path: "/v1/rules?limit=50"},
			{path: "/v1/rules?limit=50&sort=support&min_lift=2"},
			{path: "/v1/rules?keyword=failed&limit=50"},
			{path: "/v1/rules?keyword=gpu_type%3DT4&limit=50"},
			{path: "/v1/rules?keyword=user_tier%3Dfrequent&limit=50"},
			{path: "/v1/drift?keyword=failed"},
			{path: "/v1/rules?limit=50", revalidate: true},
		},
	},
	// Each burst is one tenant group's upload: 500 events that all route to
	// one shard, rotating over the shards, sent over one second. The
	// encoder bootstrap and the shard window are multiples of the 500 mine
	// batch, so every shard mines by count exactly when a burst (or its
	// share of the preload) completes; the one-minute tick never fires
	// inside a run, and a burst costs exactly one shard publish and one
	// remerge.
	"sharded-merge": {
		name: "sharded-merge", window: 2000, mineBatch: 500, mineInterval: time.Minute,
		shards: 3, csv: true, postEvents: 5, burstPosts: 100, burstGap: 10 * time.Millisecond,
		burstEvery: 6 * time.Second, queryRate: 72,
		shapes: []shape{
			{path: "/v1/rules?limit=50"},
			{path: "/v1/rules?keyword=failed&limit=50"},
			{path: "/v1/rules?limit=50", revalidate: true},
		},
	},
}

func (w *workload) shardCount() int {
	if w.shards > 1 {
		return w.shards
	}
	return 1
}

// args are the serve flags of one launch; dir is the launch's directory.
func (w *workload) args(dir string) []string {
	a := []string{
		"-window", strconv.Itoa(w.window),
		"-mine-batch", strconv.Itoa(w.mineBatch),
		"-mine-interval", w.mineInterval.String(),
	}
	if w.shards > 1 {
		a = append(a, "-shards", strconv.Itoa(w.shards), "-tenant-field", tenantField)
	}
	if w.durable {
		a = append(a, "-wal-dir", filepath.Join(dir, "wal"), "-state-dir", filepath.Join(dir, "state"))
	}
	return a
}

// serverConfig is the server.Config cmd/serve builds from args: the PAI
// spec with serve's default -skip list, every other knob at its default.
func (w *workload) serverConfig() server.Config {
	spec := server.PAISpec()
	spec.Skip = []string{"job_id", "submit_s"}
	return server.Config{Spec: spec, WindowSize: w.window, MineBatch: w.mineBatch, MineInterval: w.mineInterval}
}

// plan is the load phase's open-loop schedule. Requests due in the first
// -seconds are measured; the schedule continues past them (unmeasured) until
// every measured event is visible, so the last measured events are mined
// the way every earlier one was instead of waiting out a starved batch.
type plan struct {
	posts   []plannedPost
	queries []plannedQuery
	// sendInterval is the tightest gap between two scheduled requests on
	// one connection: a load generator running later than this at p99 has
	// stopped keeping its own schedule.
	sendInterval time.Duration
}

type plannedPost struct {
	due      time.Duration
	n        int // events in the body
	burst    int
	measured bool
}

type plannedQuery struct {
	due      time.Duration
	shape    int
	measured bool
}

// extension bounds the unmeasured schedule after the measured window.
const extension = 8 * time.Second

func (w *workload) plan(seconds int, rate, queryRate float64, seed int64) plan {
	var p plan
	length := time.Duration(seconds) * time.Second
	if w.burstPosts > 0 {
		p.sendInterval = w.burstGap
		for b := 0; time.Duration(b)*w.burstEvery < length+extension; b++ {
			start := time.Duration(b) * w.burstEvery
			for i := 0; i < w.burstPosts; i++ {
				due := start + time.Duration(i)*w.burstGap
				p.posts = append(p.posts, plannedPost{due: due, n: w.postEvents, burst: b, measured: start < length})
			}
		}
	} else {
		gap := time.Duration(float64(time.Second) * float64(w.postEvents) / rate)
		p.sendInterval = gap
		for i := 0; time.Duration(i)*gap < length+extension; i++ {
			due := time.Duration(i) * gap
			p.posts = append(p.posts, plannedPost{due: due, n: w.postEvents, burst: i, measured: due < length})
		}
	}
	rng := rand.New(rand.NewSource(seed))
	qgap := time.Duration(float64(time.Second) / queryRate)
	if p.sendInterval == 0 || qgap < p.sendInterval {
		p.sendInterval = qgap
	}
	for i := 0; time.Duration(i)*qgap < length+extension; i++ {
		due := time.Duration(i) * qgap
		p.queries = append(p.queries, plannedQuery{due: due, shape: rng.Intn(len(w.shapes)), measured: due < length})
	}
	return p
}

// preload is the number of leading events in send order that fill every
// window.
func (w *workload) preload() int { return w.window * w.shardCount() }

// arrange puts the generated events in send order. One server takes the
// trace as generated. A cluster first gets each shard's first window of
// events (interleaved in trace order), then bursts that each take the next
// burst of one shard's events, rotating over the shards; load is the number
// of burst events needed.
func (w *workload) arrange(events []server.Event, load int) ([]server.Event, error) {
	s := w.shardCount()
	if s == 1 {
		return events, nil
	}
	per := make([][]server.Event, s)
	var out []server.Event
	for _, ev := range events {
		k := shardOf(ev, s)
		if len(per[k]) < w.window {
			out = append(out, ev)
		}
		per[k] = append(per[k], ev)
	}
	burst := w.burstPosts * w.postEvents
	next := make([]int, s)
	for i := range next {
		next[i] = w.window
	}
	for b := 0; len(out) < w.preload()+load; b++ {
		k := b % s
		if next[k]+burst > len(per[k]) {
			return nil, fmt.Errorf("shard %d has %d generated events, burst %d needs %d", k, len(per[k]), b, next[k]+burst)
		}
		out = append(out, per[k][next[k]:next[k]+burst]...)
		next[k] += burst
	}
	if len(out) < w.preload() {
		return nil, fmt.Errorf("generated events do not fill %d shard windows of %d", s, w.window)
	}
	return out, nil
}

// report is everything one run measured.
type report struct {
	metrics           map[string]float64
	attempted, failed int
	gateErr           error
	spans             []span
}

// invalidRunError marks a run whose load generator fell behind its own
// schedule: its latencies describe the harness, not the server.
type invalidRunError struct{ msg string }

func (e *invalidRunError) Error() string { return e.msg }

// setups is how many times each run launches and warms a server; setup_s is
// their median and the last launch serves the load phase.
const setups = 5

func runWorkload(w *workload, o options) (*report, error) {
	rate, queryRate := w.rate, w.queryRate
	if o.rate > 0 && w.burstPosts == 0 {
		rate = o.rate
	}
	if o.queryRate > 0 {
		queryRate = o.queryRate
	}
	pl := w.plan(o.seconds, rate, queryRate, o.seed)
	loadEvents := 0
	for _, p := range pl.posts {
		loadEvents += p.n
	}
	preload := w.preload()
	jobs := preload + loadEvents
	if s := w.shardCount(); s > 1 {
		// Each burst draws from one shard, so every shard needs its window
		// plus its share of the bursts; tenant routing gives the smallest
		// of three shards well over a sixth of the trace.
		bursts := pl.posts[len(pl.posts)-1].burst + 1
		jobs = 2 * s * (w.window + (bursts+s-1)/s*w.burstPosts*w.postEvents)
	}
	events, err := genEvents(jobs, o.seed)
	if err != nil {
		return nil, err
	}
	if events, err = w.arrange(events, loadEvents); err != nil {
		return nil, err
	}
	if preload+loadEvents > len(events) {
		return nil, fmt.Errorf("generated %d events, need %d", len(events), preload+loadEvents)
	}
	tf, err := render(events[:preload+loadEvents], w.csv)
	if err != nil {
		return nil, err
	}

	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	setupSecs := make([]float64, 0, setups)
	var live *serveProc
	for i := 0; i < setups; i++ {
		dir := filepath.Join(o.workdir, "serve", fmt.Sprintf("%s-%d", w.name, i))
		p, secs, err := setupServer(w, o.serve, dir, tf, preload)
		if err != nil {
			return nil, fmt.Errorf("setup %d: %w", i+1, err)
		}
		setupSecs = append(setupSecs, secs)
		if i < setups-1 {
			p.stop()
		} else {
			live = p
		}
	}
	defer live.stop()

	lr, err := runLoad(w, pl, tf, preload, live, tr)
	if err != nil {
		return nil, err
	}
	rep := &report{metrics: map[string]float64{}, attempted: lr.attempted, failed: lr.failed}
	m := rep.metrics
	m["setup_s"] = median(setupSecs)
	for i, secs := range setupSecs {
		m[fmt.Sprintf("setup_s.launch%d", i+1)] = secs // run record only
	}
	if m["peak_rss_mb"], err = live.peakRSSMB(); err != nil {
		return nil, err
	}
	defer lr.probe.close()
	if err := lr.endToEnd(m); err != nil {
		return nil, err
	}
	if err := lr.validity(pl.sendInterval); err != nil {
		return nil, err
	}

	// The gate reads the full final rule set once the measured events are
	// visible, then the server is stopped so nothing competes with the
	// oracle and the replay for the CPU.
	full, err := fetchFullRules(lr.probe, "/v1/rules")
	if err != nil {
		return nil, err
	}
	checkpointBytes := dirSize(filepath.Join(live.dir, "state"))
	live.stop()

	accepted := append(append([]server.Event(nil), tf.events[:preload]...), lr.accepted...)
	cfg := w.serverConfig()
	if w.shardCount() == 1 {
		rep.gateErr = gateSingle(cfg, accepted, full)
	} else {
		rep.gateErr = gateMergedTotal(lr.finalTotal, len(accepted))
	}
	if !o.trace || rep.gateErr != nil {
		return rep, nil
	}

	in := replayInput{
		w: w, cfg: cfg, events: accepted, preload: preload, bodies: lr.bodies, ctype: tf.contentType(),
		points: lr.replayPoints(accepted), workdir: o.workdir, mergedFull: full,
	}
	if err := replay(tr, in, m); err != nil {
		var ge *gateError
		if errors.As(err, &ge) {
			rep.gateErr = ge
			return rep, nil
		}
		return nil, err
	}
	lr.live(m, checkpointBytes)
	m["trace.ack_p50_ms"] = m["ack_p50_ms"]
	m["trace.ack_p95_ms"] = m["ack_p95_ms"]
	m["trace.visible_p50_ms"] = m["visible_p50_ms"]
	m["trace.query_p50_ms"] = m["query_p50_ms"]
	m["trace.query_p99_ms"] = m["query_p99_ms"]
	path := []string{"stream.Miner.BeginView", "stream.PendingView.Mine", "stream.Diff", "server.NewRuleIndex", "server.WatchHub.Publish"}
	if w.shardCount() > 1 {
		path = append(path, "shard.Cluster.Merged")
	}
	attributed := 0.0
	for _, name := range path {
		attributed += median(tr.durMS(name))
	}
	m["server.unattributed_ms"] = m["visible_p50_ms"] - attributed
	rep.spans = tr.spans
	return rep, nil
}

// setupServer launches a server, fills its window (or every shard's) with
// the first preload events, waits for the first snapshot that covers them,
// and sends each query shape once. The elapsed time is setup_s.
func setupServer(w *workload, bin, dir string, tf *traffic, preload int) (*serveProc, float64, error) {
	start := time.Now()
	p, err := launch(bin, dir, w.args(dir))
	if err != nil {
		return nil, 0, err
	}
	c := newClient(p.base)
	defer c.close()
	fail := func(err error) (*serveProc, float64, error) {
		p.stop()
		return nil, 0, err
	}
	for lo := 0; lo < preload; {
		hi := min(lo+500, preload)
		r := c.do("POST", "/v1/jobs", tf.contentType(), tf.body(lo, hi), "")
		if r.err != nil {
			return fail(r.err)
		}
		var ir ingestReply
		if err := json.Unmarshal(r.body, &ir); err != nil {
			return fail(fmt.Errorf("preload: %v", err))
		}
		if ir.Rejected > 0 {
			return fail(fmt.Errorf("preload: server rejected %d events: %s", ir.Rejected, r.body))
		}
		lo += ir.Accepted
		switch r.status {
		case http.StatusOK:
		case http.StatusTooManyRequests:
			time.Sleep(20 * time.Millisecond)
		default:
			return fail(fmt.Errorf("preload: status %d: %s", r.status, r.body))
		}
	}
	if err := waitVisible(c, preload, 60*time.Second); err != nil {
		return fail(fmt.Errorf("preload: %w", err))
	}
	for _, s := range w.shapes {
		if r := c.do("GET", s.path, "", nil, ""); !r.ok() {
			return fail(fmt.Errorf("warm-up %s: status %d %v", s.path, r.status, r.err))
		}
	}
	return p, time.Since(start).Seconds(), nil
}

// waitVisible polls until a published snapshot covers total events.
func waitVisible(c *client, total int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	var h snapshotHead
	for {
		r := c.do("GET", "/v1/rules?limit=1", "", nil, "")
		if r.err == nil && r.status == http.StatusOK {
			var err error
			if h, err = parseHead(r.body); err != nil {
				return err
			}
			if h.Total >= total {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("snapshot covers %d of %d events after %s", h.Total, total, timeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// fetchFullRules reads the whole current rule set in one page, reading
// again if a publish between two reads grew the set past the page.
func fetchFullRules(c *client, path string) ([]byte, error) {
	limit := 1
	for attempt := 0; attempt < 5; attempt++ {
		r := c.do("GET", fmt.Sprintf("%s?limit=%d", path, limit), "", nil, "")
		if r.err != nil || r.status != http.StatusOK {
			return nil, fmt.Errorf("GET %s: status %d %v", path, r.status, r.err)
		}
		h, err := parseHead(r.body)
		if err != nil {
			return nil, err
		}
		if h.RuleCount <= limit {
			return r.body, nil
		}
		limit = h.RuleCount
	}
	return nil, fmt.Errorf("the rule set kept changing while %s was read", path)
}

func dirSize(dir string) float64 {
	total := int64(0)
	_ = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			total += info.Size()
		}
		return nil
	})
	return float64(total)
}
