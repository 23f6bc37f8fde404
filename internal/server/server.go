// Package server is the online half of the workflow: a long-running
// rule-mining service in the shape of Meta's production RCA system. Job
// completion events arrive over HTTP as NDJSON or CSV, pass through the
// same discretize → one-hot encoding the batch pipeline uses (bins fitted
// once on a bootstrap sample, activity tiers maintained from running
// counts), and land in a sliding window. A background loop re-mines the
// window — the non-concurrency-safe stream.Miner is confined to that
// single goroutine, fed by a bounded channel whose overflow surfaces as
// HTTP 429 — and publishes each result as an immutable snapshot swapped in
// via atomic.Pointer, so queries never block on mining and mining never
// blocks on queries. Operators query pruned keyword rule tables
// (/v1/rules), rule drift between consecutive snapshots (/v1/drift), and
// counters as JSON or Prometheus text (/metrics).
//
// Durability is layered: a checkpoint (internal/server/checkpoint.go)
// makes restarts cheap, and a write-ahead log (internal/wal) makes them
// lossless — every accepted event is framed into the WAL before it is
// enqueued, and recovery replays the WAL tail on top of the restored
// checkpoint. The mining loop is self-healing: a panicking mine is
// recovered and counted, a hung mine is abandoned by a watchdog, and in
// both cases the last good snapshot stays served (flagged stale) while
// /healthz reports the degraded state until the next mine succeeds.
package server

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/stream"
	"repro/internal/wal"
)

// Config sizes the service. The zero value of every threshold selects the
// paper's setting, as elsewhere in the codebase.
type Config struct {
	// Spec declares how events encode into transactions. Required (an
	// empty spec rejects every numeric field).
	Spec Spec
	// WindowSize is the sliding-window length in jobs; zero means 5000.
	WindowSize int
	// MinSupport, MaxLen, MinLift are the mining thresholds (0.05, 5, 1.5).
	MinSupport float64
	MaxLen     int
	MinLift    float64
	// CLift and CSupp are the pruning slack parameters (1.5) applied when
	// /v1/rules serves a keyword analysis.
	CLift, CSupp float64
	// MaxPrevalence drops items above this running share of transactions;
	// zero means the paper's 0.8, 1 disables.
	MaxPrevalence float64
	// KeepItems exempts item names from prevalence dropping.
	KeepItems []string
	// Bootstrap is the number of events buffered to fit bin edges before
	// any mining happens; zero means 500. Shorter streams fit at the
	// first mine tick instead.
	Bootstrap int
	// MineInterval is the re-mine cadence when data trickles in; zero
	// means 2s.
	MineInterval time.Duration
	// MineBatch re-mines eagerly after this many new transactions
	// regardless of the interval; zero means 1000. Whole batches that
	// queued up while a mine ran are taken by the next mine together, so a
	// burst of B events publishes about twice instead of B/MineBatch times;
	// a loop that keeps up mines at every batch.
	MineBatch int
	// MineTimeout is the watchdog bound on one re-mine: a mine still
	// running after this long is abandoned, the server enters degraded
	// mode (stale snapshot, /healthz reports it), and the loop moves on.
	// Zero disables the watchdog.
	MineTimeout time.Duration
	// QueueSize bounds the ingest queue; a full queue turns POSTs into
	// 429 responses. Zero means 8192.
	QueueSize int
	// Workers is ignored: every mine is serial. The field stays only
	// because perfbench still reads it.
	Workers int
	// StateDir, when set, makes the server durable: the mining loop
	// checkpoints its full state (fitted discretizers, tier and prevalence
	// counts, item catalog, window ring, snapshot seq) to an atomically
	// replaced file there, and New restores from an existing file —
	// skipping the bootstrap — so a restart serves the same rules an
	// uninterrupted server would. The last two checkpoint generations are
	// kept; a newest generation that fails its CRC or parse gate falls
	// back to the previous one instead of refusing to start. Empty
	// disables checkpointing. A checkpoint is written after every publish
	// and again at drain.
	StateDir string
	// WALDir, when set, adds a write-ahead log under it: accepted events
	// are framed and (per Fsync) synced before they are enqueued, and on
	// restart the WAL tail is replayed on top of the checkpoint, so a
	// kill -9 loses nothing acknowledged. Empty disables the WAL. Segments
	// are removed only once a checkpoint covers them, so the log stays
	// bounded only with a StateDir; without one it grows with the stream
	// and a restart replays it whole.
	WALDir string
	// Fsync is the WAL durability policy: "always" (sync inside every
	// append — zero acknowledged-record loss), "interval" (background
	// cadence of 100ms, the default), or "never".
	Fsync string
	// WALSegmentBytes sizes WAL segments; zero means 8 MiB.
	WALSegmentBytes int64
	// FS is the filesystem seam for the WAL and checkpoints; nil means
	// the real filesystem. Chaos tests inject failures through it.
	FS faultinject.FS
	// Clock drives the mine watchdog; nil means the wall clock.
	Clock faultinject.Clock
}

func (c Config) withDefaults() Config {
	if c.WindowSize == 0 {
		c.WindowSize = 5000
	}
	c.MinSupport, c.MaxLen, c.MinLift = stream.Thresholds(c.MinSupport, c.MaxLen, c.MinLift)
	if c.CLift == 0 {
		c.CLift = 1.5
	}
	if c.CSupp == 0 {
		c.CSupp = 1.5
	}
	if c.MaxPrevalence == 0 {
		c.MaxPrevalence = 0.8
	}
	if c.Bootstrap == 0 {
		c.Bootstrap = 500
	}
	if c.MineInterval == 0 {
		c.MineInterval = 2 * time.Second
	}
	if c.MineBatch == 0 {
		c.MineBatch = 1000
	}
	if c.QueueSize == 0 {
		c.QueueSize = 8192
	}
	if c.FS == nil {
		c.FS = faultinject.OS()
	}
	if c.Clock == nil {
		c.Clock = faultinject.RealClock()
	}
	return c
}

// Snapshot is one published mining result: immutable once stored, so
// handlers read it lock-free via atomic.Pointer.
//
// armlint:immutable — no field writes outside this file (enforced by
// immutcheck; see internal/lint).
type Snapshot struct {
	// Seq increments with every publish; the first snapshot is 1.
	Seq int64
	// PrevSeq is the seq of the snapshot Delta was computed against; 0 for
	// the first snapshot, which has no predecessor.
	PrevSeq int64
	// MinedAt is when the snapshot was built; MineDuration runs from the
	// window capture to then: mine, rule generation, diff and index build.
	MinedAt      time.Time
	MineDuration time.Duration
	// View carries the rules plus the frozen catalog to render them.
	View *stream.View
	// Index is the read-path query index over View, built at publish time.
	// It is required: handlers read it without a nil check, so a snapshot
	// assembled outside NewSnapshot must set it with NewRuleIndex(View).
	Index *RuleIndex
	// Delta is the structural diff against the previous snapshot; its
	// Appeared positions index View.Rules.
	Delta stream.Delta
	// Stale marks a republished snapshot: the mine that should have
	// replaced it panicked or timed out, so this data is older than the
	// window it claims to describe.
	Stale bool
}

// queued is one accepted event in flight to the mining loop, tagged with
// its WAL sequence number (0 when the WAL is disabled). The WAL append and
// the channel send happen under one lock, so queue order is WAL order and
// replay reproduces exactly the stream the loop would have consumed.
type queued struct {
	ev  Event
	seq uint64
}

// degradeReason codes for the degraded gauge; 0 is healthy.
const (
	degradedNone int32 = iota
	degradedMinePanic
	degradedMineTimeout
)

func degradeReasonString(code int32) string {
	switch code {
	case degradedMinePanic:
		return "mine_panic"
	case degradedMineTimeout:
		return "mine_timeout"
	default:
		return ""
	}
}

// mineHook, when set, runs inside the mining goroutine before the real
// mine — the injection seam the self-healing tests use to simulate a
// panicking or hung miner. Always nil in production.
var mineHook atomic.Pointer[func()]

// Server is the rule-mining daemon. Create with New, mount Handler on an
// http.Server, and Stop to drain and flush the final snapshot.
type Server struct {
	cfg   Config
	idx   *specIndex
	fs    faultinject.FS
	clock faultinject.Clock

	queue chan queued
	// mu guards closed against the queue close: ingest handlers send
	// under RLock after checking closed, Stop flips closed under Lock
	// before closing the channel, so a send can never race the close.
	mu     sync.RWMutex
	closed bool
	done   chan struct{}
	// abort short-circuits the loop without the drain mine or final
	// checkpoint — the in-process stand-in for kill -9 the chaos tests
	// pull.
	abort     chan struct{}
	abortOnce sync.Once

	// wal is non-nil when Config.WALDir is set. walMu makes Enqueue's
	// capacity check, append and send one step, so WAL order always equals
	// queue order and a reserved queue slot cannot be taken.
	wal   *wal.WAL
	walMu sync.Mutex
	// walRecord encodes Enqueue's WAL records under walMu; its buffer is
	// reused because the WAL copies each record into its frame.
	walRecord recordEncoder
	// lastApplied is the WAL seq of the newest record whose effect is in
	// the loop's state — written by the loop (and by replay before the
	// loop starts), read by checkpointing and /metrics.
	lastApplied atomic.Uint64

	snap    atomic.Pointer[Snapshot]
	watch   *WatchHub
	metrics metrics
	started time.Time
	mux     *http.ServeMux

	// seqBase offsets snapshot numbering after a checkpoint restore: the
	// first mine of a restored server republishes the checkpointed window
	// under its old seq instead of restarting at 1. Written once before the
	// loop starts, read only by the loop.
	seqBase int64
	// replayed counts WAL records applied during recovery; when non-zero
	// the loop mines immediately so queries reflect them from the first
	// request. replayedTxns counts the transactions they encoded to.
	replayed     int
	replayedTxns int
}

// New starts the mining loop and returns the server. When Config.StateDir
// holds a checkpoint written by a previous instance, the fitted state and
// sliding window are restored from it — no re-bootstrap — and an error is
// returned if no generation is readable or the file was written under a
// different spec. When Config.WALDir holds a log, its tail (records newer
// than the checkpoint) is replayed before the first mine.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.WindowSize < 1 {
		return nil, fmt.Errorf("server: window size %d", cfg.WindowSize)
	}
	if _, err := wal.ParseSyncPolicy(cfg.Fsync); err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	s := &Server{
		cfg:     cfg,
		idx:     newSpecIndex(cfg.Spec),
		fs:      cfg.FS,
		clock:   cfg.Clock,
		queue:   make(chan queued, cfg.QueueSize),
		done:    make(chan struct{}),
		abort:   make(chan struct{}),
		started: cfg.Clock.Now(),
		watch:   NewWatchHub(0),
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/jobs", s.handleIngest)
	s.mux.HandleFunc("GET /v1/rules", s.handleRules)
	s.mux.HandleFunc("GET /v1/drift", s.handleDrift)
	s.mux.HandleFunc("GET /v1/drift/watch", s.handleWatch)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	enc := newEncoder(s.idx, cfg.Bootstrap, cfg.MaxPrevalence, cfg.KeepItems)
	miner, err := s.restoreDurableState(&enc)
	if err != nil {
		return nil, err
	}
	if miner == nil {
		if miner, err = stream.New(nil, s.streamConfig()); err != nil {
			return nil, err
		}
	}
	if err := s.openWALAndReplay(miner, enc); err != nil {
		return nil, err
	}
	go s.loop(miner, enc)
	return s, nil
}

// restoreDurableState loads the newest restorable checkpoint generation.
// It returns a nil miner (cold start) when StateDir is unset or holds no
// checkpoint. The encoder is recreated per attempt because a failed
// restore can leave it partially hydrated.
func (s *Server) restoreDurableState(enc **encoder) (*stream.Miner, error) {
	if s.cfg.StateDir == "" {
		return nil, nil
	}
	cands, loadErrs := loadCheckpoints(s.fs, s.cfg.StateDir)
	var restoreErrs []error
	for i, cp := range cands {
		attempt := newEncoder(s.idx, s.cfg.Bootstrap, s.cfg.MaxPrevalence, s.cfg.KeepItems)
		miner, seq, err := s.restore(cp, attempt)
		if err != nil {
			restoreErrs = append(restoreErrs, err)
			continue
		}
		if i > 0 || len(loadErrs) > 0 {
			// The newest generation was unreadable or unrestorable and an
			// older one carried the day: visible, but not fatal.
			s.metrics.checkpointFallbacks.Add(1)
		}
		*enc = attempt
		s.seqBase = seq
		s.lastApplied.Store(cp.WALApplied)
		s.metrics.restored.Store(1)
		return miner, nil
	}
	allErrs := append(loadErrs, restoreErrs...)
	if len(allErrs) > 0 {
		return nil, fmt.Errorf("server: no checkpoint generation restorable: %w", allErrs[0])
	}
	return nil, nil // no checkpoint at all: cold start
}

// openWALAndReplay opens the write-ahead log and replays every record the
// checkpoint does not cover, bringing encoder and miner to the exact state
// an uninterrupted process would hold.
func (s *Server) openWALAndReplay(miner *stream.Miner, enc *encoder) error {
	if s.cfg.WALDir == "" {
		return nil
	}
	policy, _ := wal.ParseSyncPolicy(s.cfg.Fsync)
	w, err := wal.Open(wal.Options{
		Dir:          s.cfg.WALDir,
		Sync:         policy,
		SegmentBytes: s.cfg.WALSegmentBytes,
		FS:           s.fs,
		Clock:        s.clock,
	})
	if err != nil {
		return fmt.Errorf("server: %w", err)
	}
	s.wal = w
	s.metrics.walCorruptFrames.Store(w.CorruptFrames())
	from := s.lastApplied.Load() + 1
	var dec lineDecoder
	err = w.Replay(from, func(seq uint64, payload []byte) error {
		ev, decErr := dec.decode(payload)
		if decErr != nil {
			// The frame passed its CRC but does not decode: count it like
			// a corrupt frame and keep going — one bad record must not
			// undo the rest of the recovery.
			s.metrics.walCorruptFrames.Add(1)
			s.lastApplied.Store(seq)
			return nil
		}
		for _, items := range s.encodeGuarded(1, func() [][]string { return enc.add(ev) }) {
			miner.ObserveNames(items...)
			s.replayedTxns++
		}
		s.lastApplied.Store(seq)
		s.replayed++
		return nil
	})
	if err != nil {
		//armlint:allow syncerr replay failed; the replay error is what matters and the WAL reopens read-only on retry
		_ = w.Close()
		return fmt.Errorf("server: replay WAL: %w", err)
	}
	s.metrics.walReplayed.Store(int64(s.replayed))
	return nil
}

func (s *Server) streamConfig() stream.Config {
	return stream.Config{
		WindowSize: s.cfg.WindowSize,
		MinSupport: s.cfg.MinSupport,
		MaxLen:     s.cfg.MaxLen,
		MinLift:    s.cfg.MinLift,
	}
}

// Handler returns the HTTP API.
func (s *Server) Handler() http.Handler { return s.mux }

// Sentinel errors Enqueue reports; callers map them to HTTP statuses (503
// draining, 429 backpressure, 503 re-send after a WAL failure).
var (
	// ErrDraining means Stop has begun and the server accepts no new events.
	ErrDraining = errors.New("server draining")
	// ErrQueueFull means the ingest queue is at capacity; the event was not
	// accepted and the caller should back off for roughly one mine interval.
	ErrQueueFull = errors.New("ingest queue full")
	// ErrWAL wraps a write-ahead-log append failure: the event is not
	// durable and was not enqueued.
	ErrWAL = errors.New("wal append failed")
)

// Enqueue hands one already-validated event to the mining loop — the
// programmatic ingest path the HTTP handler and the shard router share.
// The capacity check, the WAL append (when a WAL is configured) and the
// channel send are one atomic step under walMu, so WAL order equals queue
// order and replay reproduces exactly the stream the loop consumed; an
// event that would be dropped is never logged, and one that cannot be made
// durable is never enqueued. Callers must Validate events first
// (Decoder.Validate or the handler's spec check); Enqueue itself only
// refuses for capacity, draining, or WAL failure, reported via the sentinel
// errors above.
func (s *Server) Enqueue(ev Event) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return ErrDraining
	}
	s.walMu.Lock()
	defer s.walMu.Unlock()
	if len(s.queue) >= cap(s.queue) {
		s.metrics.throttled.Add(1)
		return ErrQueueFull
	}
	var seq uint64
	if s.wal != nil {
		payload, err := s.walRecord.encode(ev)
		if err == nil {
			seq, err = s.wal.Append(payload)
		}
		if err != nil {
			s.metrics.walErrors.Add(1)
			return fmt.Errorf("%w: %v", ErrWAL, err)
		}
		s.metrics.walAppends.Add(1)
	}
	//armlint:allow locksend the capacity check above, under this same walMu, reserved a free slot; only loop drains the queue
	s.queue <- queued{ev: ev, seq: seq}
	s.metrics.accepted.Add(1)
	return nil
}

// RejectedLine counts one event refused by front-tier validation, so a
// router that validates before routing keeps this shard's rejection
// counter truthful.
func (s *Server) RejectedLine() { s.metrics.rejected.Add(1) }

// RetryAfterSeconds is the backoff hint for ErrQueueFull, derived from the
// mine cadence.
func (s *Server) RetryAfterSeconds() int { return s.retryAfterSeconds() }

// Snapshot returns the latest published snapshot, or nil before the first
// mine completes.
func (s *Server) Snapshot() *Snapshot { return s.snap.Load() }

// LastAppliedSeq returns the WAL sequence number of the newest record
// incorporated into the mining state — the position a client should resume
// sending from after a crash (everything at or below it is durable and
// will not be lost; everything above it was never acknowledged).
func (s *Server) LastAppliedSeq() uint64 { return s.lastApplied.Load() }

// Stop drains the ingest queue, mines one final snapshot from whatever
// arrived, and shuts the loop down. Ingest requests after Stop receive
// 503. The context bounds the wait for the drain.
func (s *Server) Stop(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	close(s.queue)
	select {
	case <-s.done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("server: drain interrupted: %w", ctx.Err())
	}
}

// kill stops the loop without the drain mine or the final checkpoint — the
// closest an in-process test can get to kill -9. The WAL and checkpoint
// files are left exactly as the crash found them.
func (s *Server) kill() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.abortOnce.Do(func() { close(s.abort) })
	<-s.done
}

// encodeGuarded runs one encoder step behind a recover fence: a poison
// event that panics the encode is dropped and counted instead of taking
// the whole daemon down. Every panic counts in encode_panics; dropped is
// what a panic adds to encode_errors, the events-dropped count: 1 for an
// event's add, 0 for a flush, which drops no single event of its own.
func (s *Server) encodeGuarded(dropped int64, step func() [][]string) (txns [][]string) {
	defer func() {
		if r := recover(); r != nil {
			s.metrics.encodePanics.Add(1)
			s.metrics.encodeErrors.Add(dropped)
			txns = nil
		}
	}()
	return step()
}

// loop is the single writer: it alone touches the miner, the encoder and
// the item catalog, which is what makes the un-synchronized stream.Miner
// race-free under concurrent ingest and query load.
func (s *Server) loop(miner *stream.Miner, enc *encoder) {
	defer close(s.done)
	// Closing the hub ends every /v1/drift/watch stream, so an http.Server
	// shutdown is not held open by idle SSE subscribers.
	defer s.watch.Close()
	defer func() {
		if s.wal != nil {
			//armlint:allow syncerr shutdown path; Stop() already synced, and a close error here has no caller to reach
			_ = s.wal.Close()
		}
	}()
	if s.seqBase > 0 || s.replayed > 0 {
		// Restored from a checkpoint and/or replayed a WAL tail: mine the
		// recovered window immediately so queries work from the first
		// request. With no replayed records the window is identical to the
		// checkpointed one, so the republished rules are too.
		s.mine(miner, s.replayedTxns)
	}
	// Re-armed after every firing rather than a ticker: faultinject.Clock
	// has no ticker, and the re-arm keeps the interval seam injectable for
	// the deterministic chaos suites.
	tick := s.clock.After(s.cfg.MineInterval)
	pending := 0
	// batch is the pending count that fires the next mine. It is MineBatch
	// unless whole batches queued up behind the last mine: those fold into
	// the next one, so a backlog costs one stale publish instead of one per
	// batch. Only whole batches fold, so every mine point stays a multiple
	// of MineBatch counted from the previous mine, exactly where a loop
	// that keeps up would have mined.
	batch := s.cfg.MineBatch
	observe := func(txns [][]string) {
		for _, items := range txns {
			miner.ObserveNames(items...)
			pending++
		}
	}
	checkpoint := func() {
		if s.cfg.StateDir == "" {
			return
		}
		if err := s.saveCheckpoint(miner, enc); err != nil {
			s.metrics.checkpointErrors.Add(1)
			return
		}
		s.metrics.checkpoints.Add(1)
		if s.wal != nil {
			// Records at or below lastApplied are folded into the
			// checkpoint now; whole segments below that line are dead
			// weight.
			if n, err := s.wal.TruncateBefore(s.lastApplied.Load() + 1); err == nil {
				s.metrics.walSegmentsRemoved.Add(int64(n))
			}
		}
	}
	mine := func() {
		s.mine(miner, pending)
		pending = 0
		checkpoint()
		batch = max(s.cfg.MineBatch, len(s.queue)/s.cfg.MineBatch*s.cfg.MineBatch)
	}
	for {
		select {
		case <-s.abort:
			return
		case q, ok := <-s.queue:
			if !ok {
				// Queue closed and drained: flush any unfitted
				// bootstrap backlog, publish the final snapshot, and
				// always leave a fresh checkpoint behind.
				observe(s.encodeGuarded(0, enc.flush))
				if pending > 0 {
					s.mine(miner, pending)
				}
				checkpoint()
				return
			}
			observe(s.encodeGuarded(1, func() [][]string { return enc.add(q.ev) }))
			if q.seq > 0 {
				s.lastApplied.Store(q.seq)
			}
			if pending >= batch {
				mine()
			}
		case <-tick:
			// A short stream may never fill the bootstrap sample; fit
			// on whatever arrived so trickle workloads still get rules.
			// After the bootstrap the flush fits late-arriving numeric
			// fields from their buffered samples.
			observe(s.encodeGuarded(0, enc.flush))
			if pending > 0 {
				mine()
			}
			tick = s.clock.After(s.cfg.MineInterval)
		}
	}
}

// mineOutcome carries a mine goroutine's result back across the watchdog.
type mineOutcome struct {
	view     *stream.View
	panicked any
}

// mine re-mines the window, which holds txns transactions newer than the
// previous capture, and publishes the result. The heavy work runs
// on a detached goroutine over an immutable PendingView, fenced two ways:
// a recover() turns a panicking mine into a degraded tick instead of a
// dead daemon, and (when MineTimeout is set) a watchdog abandons a mine
// that hangs. In either failure the last good snapshot is republished with
// its Stale flag up, so operators keep getting answers — clearly marked —
// until the next batch mines cleanly.
func (s *Server) mine(miner *stream.Miner, txns int) {
	start := s.clock.Now()
	pv := miner.BeginView()
	outcome := make(chan mineOutcome, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				outcome <- mineOutcome{panicked: r}
			}
		}()
		if hook := mineHook.Load(); hook != nil {
			(*hook)()
		}
		outcome <- mineOutcome{view: pv.Mine()}
	}()
	var timeout <-chan time.Time
	if s.cfg.MineTimeout > 0 {
		timeout = s.clock.After(s.cfg.MineTimeout)
	}
	select {
	case out := <-outcome:
		if out.panicked != nil {
			s.metrics.minePanics.Add(1)
			s.degrade(degradedMinePanic)
			return
		}
		s.publish(out.view, start, txns)
	case <-timeout:
		// The goroutine is beyond recall; it holds only its PendingView
		// (a private catalog clone plus immutable window sets), so the
		// loop can keep observing and mine a fresh view next batch while
		// this one finishes into the void.
		s.metrics.mineTimeouts.Add(1)
		s.degrade(degradedMineTimeout)
	}
}

// degrade records the failure mode and republishes the last good snapshot
// flagged stale, so readers can tell "current rules" from "best rules we
// still have".
func (s *Server) degrade(code int32) {
	s.metrics.degraded.Store(code)
	if prev := s.snap.Load(); prev != nil && !prev.Stale {
		stale := *prev
		stale.Stale = true
		s.snap.Store(&stale)
	}
}

// NewSnapshot assembles the snapshot published after prev (nil before the
// first): numbered prev.Seq+1, or first when there is no prev, with the rule
// diff against prev and the read index over view. The diff and the index
// build only read the immutable rule lists and each writes its own field,
// so they run side by side. It is stamped MinedAt = clock.Now() once both
// are built, and MineDuration runs from start (the window capture) to that
// instant, so the mine duration covers the whole publish: mine, rule
// generation, diff and index build. The single server's mines and the
// shard cluster's merges both publish through it.
func NewSnapshot(prev *Snapshot, first int64, view *stream.View, clock faultinject.Clock, start time.Time, stale bool) *Snapshot {
	snap := &Snapshot{
		Seq:   first,
		View:  view,
		Stale: stale,
	}
	var prevView *stream.View
	if prev != nil {
		snap.Seq = prev.Seq + 1
		snap.PrevSeq = prev.Seq
		prevView = prev.View
	}
	parallel(
		func() { snap.Index = NewRuleIndex(view) },
		func() { snap.Delta = stream.DiffViews(prevView, view) },
	)
	snap.MinedAt = clock.Now()
	snap.MineDuration = snap.MinedAt.Sub(start)
	return snap
}

// parallel runs independent stages side by side, every stage but the last
// on a goroutine of its own and the last on the caller's, and returns once
// all of them have returned. The fan-out is the stage list: with
// GOMAXPROCS 1 the stages simply run one after another. A panic in a stage
// is re-raised on the caller's goroutine after the join, with the stage's
// panic value; when several panic, the first in argument order wins, the
// one a serial run of the stages would have raised.
func parallel(stages ...func()) {
	panics := make([]any, len(stages))
	run := func(i int) {
		defer func() { panics[i] = recover() }()
		stages[i]()
	}
	var wg sync.WaitGroup
	for i := range stages[:len(stages)-1] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(i)
		}()
	}
	run(len(stages) - 1)
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
}

// publish swaps in a freshly mined snapshot of the window captured at
// start, which added txns transactions. The first mine is seq 1 on a cold
// start; after a restore it republishes the checkpointed window under its
// recorded seq, so numbering continues exactly where the previous instance
// stopped. last_mine_txns is stored with the publish counter, not at
// capture, so a reader never pairs one mine's count with the next mine's
// transactions.
func (s *Server) publish(view *stream.View, start time.Time, txns int) {
	snap := NewSnapshot(s.snap.Load(), max(s.seqBase, 1), view, s.clock, start, false)
	// A clean mine ends any degraded state. Clear the flag before the swap,
	// so a reader that sees the new seq never sees the old failure.
	s.metrics.degraded.Store(degradedNone)
	s.snap.Store(snap)
	s.watch.Publish(snap)
	s.metrics.lastMineTxns.Store(int64(txns))
	s.metrics.mineCount.Add(1)
}

// Watch exposes the drift push hub, so a fronting tier (the shard cluster)
// can route /v1/drift/watch traffic or hang a merge trigger off publishes.
func (s *Server) Watch() *WatchHub { return s.watch }

// PAISpec is the live-serving counterpart of core.PAIPipeline, derived
// from it: the same bins, tiers, aggregations and skipped columns, declared
// over event fields instead of frame columns, plus multi_task read as a
// bool from CSV. Use it to serve the PAI-shaped traces tracegen emits.
func PAISpec() Spec {
	p := core.PAIPipeline()
	spec := Spec{Bools: []string{"multi_task"}, Skip: p.Skip}
	for _, f := range p.Features {
		spec.Numeric = append(spec.Numeric, NumericSpec{Field: f.Column, Bins: f.Bins,
			ZeroSpecial: f.ZeroSpecial, ZeroLabel: f.ZeroLabel, ZeroEpsilon: f.ZeroEpsilon,
			SpikeThreshold: f.SpikeThreshold, SpikeLabel: f.SpikeLabel})
	}
	for _, t := range p.Tiers {
		spec.Tiers = append(spec.Tiers, TierSpec{Field: t.Column, Out: t.Out, TopShare: t.TopShare, BottomShare: t.BottomShare})
	}
	for _, m := range p.Maps {
		spec.Maps = append(spec.Maps, MapSpec{Field: m.Column, Out: m.Out, Groups: maps.Clone(m.Groups), Fallback: m.Fallback})
	}
	return spec
}
