package server

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/itemset"
	"repro/internal/rules"
	"repro/internal/stream"
)

// maxLineBytes bounds one NDJSON line; events are flat job records, so a
// megabyte is already pathological.
const maxLineBytes = 1 << 20

// maxReportedErrors caps the per-line error list in ingest responses.
const maxReportedErrors = 10

// WriteJSON writes v as a JSON response with the given status — the one
// response writer of the server and the shard cluster.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// WriteError writes {"error": <formatted message>} with the given status.
func WriteError(w http.ResponseWriter, status int, format string, args ...any) {
	WriteJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// lineError reports one rejected ingest line.
type lineError struct {
	Line  int    `json:"line"`
	Error string `json:"error"`
}

// ingestResult is the POST /v1/jobs response body.
type ingestResult struct {
	Accepted int `json:"accepted"`
	Rejected int `json:"rejected"`
	// QuotaRejected counts lines refused by a tenant quota (cluster only):
	// well-formed, but over the tenant's window.
	QuotaRejected int         `json:"quota_rejected,omitempty"`
	Errors        []lineError `json:"errors,omitempty"`
	// DroppedAtLine flags a 429, a 503, or an unreadable body: ingest
	// stopped at this 1-based line and the rest of the body was not read.
	// Re-send from here after backoff.
	DroppedAtLine int `json:"dropped_at_line,omitempty"`
	// Error describes why ingest stopped mid-body (for a 400 or 503 whose
	// earlier lines were already committed — those counts stand).
	Error string `json:"error,omitempty"`
}

// retryAfterSeconds derives the 429 Retry-After hint from the mining
// cadence: by the next mine tick the loop will have drained at least one
// batch, so that is the earliest a retry is worth making.
func (s *Server) retryAfterSeconds() int {
	secs := int(math.Ceil(s.cfg.MineInterval.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return secs
}

// handleIngest accepts NDJSON (default) or CSV (Content-Type text/csv) job
// events, validates each against the spec, and enqueues them for the
// mining loop.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	ServeIngest(w, r, &Decoder{idx: s.idx}, s.ingest, s.RejectedLine, s.retryAfterSeconds())
}

// ingest validates one decoded event and enqueues it.
func (s *Server) ingest(ev Event) error {
	if err := s.idx.validate(ev); err != nil {
		s.metrics.rejected.Add(1)
		return err
	}
	return s.Enqueue(ev)
}

// ErrQuota marks an event refused by a per-tenant ingest quota. The shard
// router returns it; ServeIngest counts such lines apart from malformed ones.
var ErrQuota = errors.New("tenant quota exceeded")

// ServeIngest answers one POST /v1/jobs request; the single server and the
// shard cluster both serve ingest through it. dec parses the body. ingest is
// called once per parsed event; it validates and enqueues the event and
// counts its own refusals. unparsed is called once per line dec cannot
// parse. A per-line error from ingest rejects that line and reading goes on;
// ErrQueueFull (429 with a Retry-After of retryAfterSeconds), ErrWAL and
// ErrDraining (503) stop it, so a full queue hands the backpressure to the
// client instead of an unbounded buffer. A stopped or unreadable body is
// answered with the partial result: the client resumes from DroppedAtLine
// instead of re-sending, and double-counting, the accepted prefix.
func ServeIngest(w http.ResponseWriter, r *http.Request, dec *Decoder, ingest func(Event) error, unparsed func(), retryAfterSeconds int) {
	var res ingestResult
	report := func(line int, err error) {
		if len(res.Errors) < maxReportedErrors {
			res.Errors = append(res.Errors, lineError{Line: line, Error: err.Error()})
		}
	}
	reject := func(line int, err error) {
		res.Rejected++
		unparsed()
		report(line, err)
	}
	var stopErr error
	emit := func(line int, ev Event) bool {
		err := ingest(ev)
		switch {
		case err == nil:
			res.Accepted++
		case errors.Is(err, ErrQueueFull), errors.Is(err, ErrWAL), errors.Is(err, ErrDraining):
			res.DroppedAtLine = line
			stopErr = err
			return false
		case errors.Is(err, ErrQuota):
			res.QuotaRejected++
			report(line, err)
		default:
			res.Rejected++
			report(line, err)
		}
		return true
	}

	_, readErr := dec.Decode(r.Header.Get("Content-Type"), r.Body, emit, reject)
	status := http.StatusOK
	switch {
	case readErr != nil:
		// The body became unreadable mid-stream (over-long line, transport
		// error), but everything before that point was validated and
		// enqueued — those events are committed.
		var re *ReadError
		if errors.As(readErr, &re) {
			res.DroppedAtLine = re.Line
		}
		res.Error = fmt.Sprintf("reading body: %v", readErr)
		status = http.StatusBadRequest
	case errors.Is(stopErr, ErrDraining):
		// The accepted prefix is mined at drain; the client re-sends from
		// DroppedAtLine to another instance.
		res.Error = "server is draining"
		status = http.StatusServiceUnavailable
	case errors.Is(stopErr, ErrWAL):
		// The record was rolled back out of the WAL, so it is not
		// durable: tell the client to re-send from DroppedAtLine once the
		// disk recovers.
		status = http.StatusServiceUnavailable
	case errors.Is(stopErr, ErrQueueFull):
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
		status = http.StatusTooManyRequests
	}
	WriteJSON(w, status, res)
}

// Decoder parses ingest bodies (NDJSON or CSV) into Events under a Spec,
// applying the same per-field typing the serving handlers use: declared
// numeric columns parse as floats, declared bool columns as booleans,
// everything else as strings. It lets a front tier (the shard router)
// decode and validate once before fanning events out to shard servers.
type Decoder struct{ idx *specIndex }

// NewDecoder builds a Decoder for spec.
func NewDecoder(spec Spec) *Decoder { return &Decoder{idx: newSpecIndex(spec)} }

// Validate rejects events the encoder could not handle (undeclared or
// non-finite numerics, unsupported types).
func (d *Decoder) Validate(ev Event) error { return d.idx.validate(ev) }

// Decode scans one request body. For every parsed event it calls
// emit(line, ev); emit returning false stops the scan (stopped=true). Lines
// that fail to parse go to reject and the scan continues. The returned
// error reports an unreadable body, not line-level damage.
func (d *Decoder) Decode(contentType string, body io.Reader, emit func(line int, ev Event) bool, reject func(line int, err error)) (stopped bool, err error) {
	return decodeBody(d.idx, contentType, body, emit, reject)
}

// ReadError reports a body that became unreadable at a specific 1-based
// line — an over-long NDJSON line, a broken transport, a damaged CSV
// stream. Lines before it were parsed and handled; the client resumes from
// Line.
type ReadError struct {
	Line int
	Err  error
}

func (e *ReadError) Error() string { return fmt.Sprintf("line %d: %v", e.Line, e.Err) }
func (e *ReadError) Unwrap() error { return e.Err }

func decodeBody(idx *specIndex, contentType string, body io.Reader, emit func(int, Event) bool, reject func(int, error)) (stopped bool, err error) {
	if strings.HasPrefix(contentType, "text/csv") {
		return decodeCSV(idx, body, emit, reject)
	}
	return decodeNDJSON(body, emit, reject)
}

// decodeNDJSON reads one JSON object per line. Blank lines are skipped;
// a line that is not a JSON object, null included, is rejected.
func decodeNDJSON(body io.Reader, emit func(int, Event) bool, reject func(int, error)) (stopped bool, err error) {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 64*1024), maxLineBytes)
	var dec lineDecoder
	line := 0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		ev, err := dec.decode(raw)
		if err != nil {
			reject(line, fmt.Errorf("invalid JSON: %v", err))
			continue
		}
		if !emit(line, ev) {
			return true, nil
		}
	}
	if err := sc.Err(); err != nil {
		// The failed read is the line after the last one the scanner
		// delivered (bufio.ErrTooLong and transport errors both surface
		// here); everything before it is committed.
		return false, &ReadError{Line: line + 1, Err: err}
	}
	return false, nil
}

func decodeCSV(idx *specIndex, body io.Reader, emit func(int, Event) bool, reject func(int, error)) (stopped bool, err error) {
	cr := csv.NewReader(body)
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return false, &ReadError{Line: 1, Err: fmt.Errorf("missing CSV header: %v", err)}
	}
	// Field names and string values are coerced to valid UTF-8 the way
	// the WAL record's trip through JSON coerces them, so the live loop and
	// a replay after a restart see the same items.
	fields := make([]string, len(header))
	for i, h := range header {
		fields[i] = validUTF8(h)
	}
	line := 1
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			return false, nil
		}
		line++
		if err != nil {
			// A *csv.ParseError is one malformed record: reject it and move
			// on. Anything else is the underlying reader failing — it would
			// fail identically on every retry, so abort instead of spinning
			// on a permanently broken stream.
			var perr *csv.ParseError
			if !errors.As(err, &perr) {
				return false, &ReadError{Line: line, Err: err}
			}
			reject(line, err)
			continue
		}
		ev := make(Event, len(fields))
		bad := false
		for i, field := range fields {
			if i >= len(rec) || rec[i] == "" {
				continue
			}
			raw := rec[i]
			if _, isNum := idx.numeric[field]; isNum {
				v, perr := strconv.ParseFloat(raw, 64)
				if perr != nil {
					reject(line, fmt.Errorf("field %q: %v", field, perr))
					bad = true
					break
				}
				ev[field] = v
			} else if idx.boolCSV[field] {
				v, perr := strconv.ParseBool(raw)
				if perr != nil {
					reject(line, fmt.Errorf("field %q: %v", field, perr))
					bad = true
					break
				}
				ev[field] = v
			} else {
				ev[field] = validUTF8(raw)
			}
		}
		if bad {
			continue
		}
		if !emit(line, ev) {
			return true, nil
		}
	}
}

// rulesResponse is the GET /v1/rules body. Without a keyword only Rules is
// set; with one, the pruned cause/characteristic split is.
type rulesResponse struct {
	Seq     int64     `json:"seq"`
	MinedAt time.Time `json:"mined_at"`
	// Stale marks a snapshot republished after a mine panic or timeout:
	// the rules are the last good set, older than the current window.
	Stale     bool `json:"stale,omitempty"`
	WindowLen int  `json:"window_len"`
	Total     int  `json:"observed_total"`
	RuleCount int  `json:"rule_count"`
	// Tenant, Shard and Shards annotate sharded deployments: a per-tenant
	// view names its tenant and the shard serving it; a merged view
	// reports how many shards contributed.
	Tenant         string           `json:"tenant,omitempty"`
	Shard          *int             `json:"shard,omitempty"`
	Shards         int              `json:"shards,omitempty"`
	Keyword        string           `json:"keyword,omitempty"`
	Rules          []rules.RuleJSON `json:"rules,omitempty"`
	Cause          []rules.RuleJSON `json:"cause,omitempty"`
	Characteristic []rules.RuleJSON `json:"characteristic,omitempty"`
	PruneStats     *pruneStatsJSON  `json:"prune_stats,omitempty"`
}

type pruneStatsJSON struct {
	Input       int    `json:"input"`
	Kept        int    `json:"kept"`
	ByCondition [4]int `json:"by_condition"`
}

// handleRules serves the current snapshot's rules. With ?keyword= the
// response is the paper's keyword analysis — redundancy-pruned cause and
// characteristic tables — computed on the immutable snapshot, never on the
// live miner.
func (s *Server) handleRules(w http.ResponseWriter, r *http.Request) {
	WriteRules(w, r, s.snap.Load(), RulesParams{
		CLift:         s.cfg.CLift,
		CSupp:         s.cfg.CSupp,
		Shard:         -1,
		MaxAgeSeconds: s.retryAfterSeconds(),
	})
}

// handleWatch streams drift events over SSE (or long-poll) as snapshots
// publish.
func (s *Server) handleWatch(w http.ResponseWriter, r *http.Request) {
	ServeWatch(w, r, s.watch)
}

// RulesParams configures WriteRules for the three serving shapes: a plain
// single-miner view (zero value plus Shard -1), a per-tenant shard view
// (Tenant + Shard set), and a merged multi-shard view (Shards set, ETag
// carrying the shard-set hash).
type RulesParams struct {
	// CLift and CSupp are the pruning slack parameters for ?keyword=
	// analyses; zero means the paper's 1.5.
	CLift, CSupp float64
	// ETag overrides the validator sent on the response. Empty derives the
	// default `"<seq>"` (`"<seq>-stale"` for stale snapshots) from the
	// snapshot, so cached responses revalidate across the mine cadence.
	ETag string
	// Tenant annotates a per-tenant view.
	Tenant string
	// Shard is the serving shard's index; -1 omits it.
	Shard int
	// Shards is the contributing shard count of a merged view; 0 omits it.
	Shards int
	// MaxAgeSeconds, when positive, emits Cache-Control: max-age so caches
	// reuse the response for one mine cadence before revalidating against
	// the ETag; 0 omits the header.
	MaxAgeSeconds int
}

// SnapshotETag is the default cache validator for a snapshot: keyed on the
// publish seq, with a -stale marker so a degraded republish (same seq, stale
// flag up) never revalidates against the healthy response.
func SnapshotETag(snap *Snapshot) string {
	if snap.Stale {
		return fmt.Sprintf("\"%d-stale\"", snap.Seq)
	}
	return fmt.Sprintf("\"%d\"", snap.Seq)
}

// etagMatches implements weak If-None-Match comparison over a comma-
// separated validator list, per RFC 9110 §13.1.2.
func etagMatches(header, etag string) bool {
	if strings.TrimSpace(header) == "*" {
		return true
	}
	strip := func(v string) string {
		v = strings.TrimSpace(v)
		return strings.TrimPrefix(v, "W/")
	}
	want := strip(etag)
	for _, cand := range strings.Split(header, ",") {
		if strip(cand) == want {
			return true
		}
	}
	return false
}

// notModified is the conditional-GET step of /v1/rules and /v1/drift, run
// after their params validate: it sets the validator (etag, or
// SnapshotETag(snap) when empty) and, for a positive maxAgeSeconds,
// Cache-Control, then answers 304 when If-None-Match matches. It reports
// whether the response is complete.
func notModified(w http.ResponseWriter, r *http.Request, snap *Snapshot, etag string, maxAgeSeconds int) bool {
	if etag == "" {
		etag = SnapshotETag(snap)
	}
	w.Header().Set("ETag", etag)
	if maxAgeSeconds > 0 {
		w.Header().Set("Cache-Control", fmt.Sprintf("max-age=%d", maxAgeSeconds))
	}
	if inm := r.Header.Get("If-None-Match"); inm != "" && etagMatches(inm, etag) {
		w.WriteHeader(http.StatusNotModified)
		return true
	}
	return false
}

// resolve maps a ?keyword= to its item. An ambiguous keyword is a client
// error (400, naming the candidates); one that matches no item is a 404.
// ok is false once that error response is written.
func resolve(w http.ResponseWriter, ix *RuleIndex, keyword string) (item itemset.Item, name string, ok bool) {
	item, name, err := ix.Resolve(keyword)
	if err != nil {
		status := http.StatusNotFound
		if errors.Is(err, errAmbiguous) {
			status = http.StatusBadRequest
		}
		WriteError(w, status, "%v", err)
		return 0, "", false
	}
	return item, name, true
}

// ruleQuery is the validated shape of a /v1/rules request: result order,
// metric floors, and the pagination window. The zero value (after
// parseRuleQuery defaults) reproduces the original API byte for byte.
type ruleQuery struct {
	limit, offset int
	sortKey       string // "lift" (natural order), "support", "confidence"
	minLift       float64
	minSupport    float64
	hasMinLift    bool
	hasMinSupport bool
	kind          string
	prune         bool
	keyword       string
}

func (q ruleQuery) matches(r *rules.Rule) bool {
	if q.hasMinLift && r.Lift < q.minLift {
		return false
	}
	if q.hasMinSupport && r.Support < q.minSupport {
		return false
	}
	return true
}

// parseRuleQuery validates every /v1/rules query parameter up front —
// before any conditional-request handling — so a malformed request is a
// 400 even when the client's cached ETag still matches (satellite: the old
// code answered 304 first and masked the error).
func parseRuleQuery(q url.Values) (ruleQuery, error) {
	out := ruleQuery{sortKey: "lift", prune: true}
	var err error
	if out.limit, err = intParam(q.Get("limit"), 50); err != nil {
		return out, fmt.Errorf("limit: %v", err)
	}
	if out.offset, err = nonNegIntParam(q.Get("offset"), 0); err != nil {
		return out, fmt.Errorf("offset: %v", err)
	}
	switch s := q.Get("sort"); s {
	case "", "lift":
		out.sortKey = "lift"
	case "support", "confidence":
		out.sortKey = s
	default:
		return out, fmt.Errorf("sort must be lift, support or confidence, got %q", s)
	}
	if out.minLift, out.hasMinLift, err = floatParam(q.Get("min_lift")); err != nil {
		return out, fmt.Errorf("min_lift: %v", err)
	}
	if out.minSupport, out.hasMinSupport, err = floatParam(q.Get("min_support")); err != nil {
		return out, fmt.Errorf("min_support: %v", err)
	}
	out.kind = q.Get("kind")
	if out.kind != "" && out.kind != "all" && out.kind != "cause" && out.kind != "characteristic" {
		return out, fmt.Errorf("kind must be cause, characteristic or all")
	}
	out.prune = q.Get("prune") != "false" && q.Get("prune") != "0"
	out.keyword = q.Get("keyword")
	return out, nil
}

// applyQuery renders one rule list through the query: re-sorted when a
// non-natural order was asked for, descending by the metric with ties
// kept in lift order, then filtered and paginated. Used for the keyword
// analysis lists; the no-keyword path walks the index's precomputed
// orders instead.
func applyQuery(rs []rules.Rule, q ruleQuery) []rules.Rule {
	var key func(r *rules.Rule) float64
	switch q.sortKey {
	case "support":
		key = func(r *rules.Rule) float64 { return r.Support }
	case "confidence":
		key = func(r *rules.Rule) float64 { return r.Confidence }
	default:
		return page(rs, nil, q)
	}
	if len(rs) >= radixFrom {
		return page(rs, sortedOrder(rs, key), q)
	}
	order := make([]int32, len(rs))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortStableFunc(order, func(a, b int32) int { return cmp.Compare(key(&rs[b]), key(&rs[a])) })
	return page(rs, order, q)
}

// radixFrom is the keyword-list length from which applyQuery sorts by
// sortedOrder's radix sort rather than a stable comparison sort of the
// list's positions. Keyword lists span both sides: on the 5000-job PAI
// fixture the pruned lists of perfbench's query-mix keywords hold 22 to
// 2,051 rules and the unpruned ones 546 to 21,860. The two sorts measure
// about even at 384 rules; at 50 the comparison sort takes a quarter of
// the radix sort's time, at 4,096 the radix sort a third of the
// comparison sort's (2 vCPU Xeon, go1.24.0).
const radixFrom = 384

// page walks rs in order (nil means as stored), skips the rules the query's
// metric floors reject and then its offset, and copies out at most limit
// rules. Without floors the walk is O(offset+limit).
func page(rs []rules.Rule, order []int32, q ruleQuery) []rules.Rule {
	out := make([]rules.Rule, 0, min(q.limit, len(rs)))
	skip := q.offset
	for i := range rs {
		r := &rs[i]
		if order != nil {
			r = &rs[order[i]]
		}
		if !q.matches(r) {
			continue
		}
		if skip > 0 {
			skip--
			continue
		}
		out = append(out, *r)
		if len(out) == q.limit {
			break
		}
	}
	return out
}

// WriteRules renders snap as a /v1/rules response — the shared read path of
// the single-miner server, the per-tenant shard views, and the merged
// multi-shard view. A nil snap answers 503 (nothing mined yet). The
// response carries an ETag keyed on the snapshot seq (plus Cache-Control
// when the caller knows the mine cadence); a valid request whose
// If-None-Match matches is answered 304 with no body, so clients and LBs
// cache rule tables across the mine cadence and revalidate for free. All
// reads go through the snapshot's RuleIndex: posting lists for ?keyword=,
// precomputed orders for ?sort=, and a per-snapshot cache of pruned
// analyses, so repeated queries cost O(result), not O(rules).
func WriteRules(w http.ResponseWriter, r *http.Request, snap *Snapshot, p RulesParams) {
	if snap == nil {
		WriteError(w, http.StatusServiceUnavailable, "no snapshot mined yet; ingest jobs and retry")
		return
	}
	if p.CLift == 0 {
		p.CLift = 1.5
	}
	if p.CSupp == 0 {
		p.CSupp = 1.5
	}
	q, err := parseRuleQuery(r.URL.Query())
	if err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if notModified(w, r, snap, p.ETag, p.MaxAgeSeconds) {
		return
	}

	view := snap.View
	ix := snap.Index
	resp := rulesResponse{
		Seq:       snap.Seq,
		MinedAt:   snap.MinedAt,
		Stale:     snap.Stale,
		WindowLen: view.WindowLen,
		Total:     view.Total,
		RuleCount: len(view.Rules),
		Tenant:    p.Tenant,
		Shards:    p.Shards,
	}
	if p.Shard >= 0 {
		shard := p.Shard
		resp.Shard = &shard
	}
	if q.keyword == "" {
		resp.Rules = rules.ManyToJSON(ix.collect(q), view.Catalog)
		WriteJSON(w, http.StatusOK, resp)
		return
	}
	item, name, ok := resolve(w, ix, q.keyword)
	if !ok {
		return
	}
	resp.Keyword = name
	analysis := ix.Analysis(item, p.CLift, p.CSupp)
	var split rules.Analysis
	if q.prune {
		split = analysis.prunedSplit
		stats := analysis.stats
		resp.PruneStats = &pruneStatsJSON{Input: stats.Input, Kept: stats.Kept, ByCondition: stats.ByCond}
	} else {
		split = analysis.relevantSplit()
	}
	if q.kind == "" || q.kind == "all" || q.kind == "cause" {
		resp.Cause = rules.ManyToJSON(applyQuery(split.Cause, q), view.Catalog)
	}
	if q.kind == "" || q.kind == "all" || q.kind == "characteristic" {
		resp.Characteristic = rules.ManyToJSON(applyQuery(split.Characteristic, q), view.Catalog)
	}
	WriteJSON(w, http.StatusOK, resp)
}

// driftResponse is the GET /v1/drift body: the structural rule diff
// between the two most recent snapshots. PrevSeq is omitted on the first
// snapshot, which has no predecessor to diff against.
type driftResponse struct {
	Seq      int64            `json:"seq"`
	PrevSeq  int64            `json:"prev_seq,omitempty"`
	Jaccard  float64          `json:"jaccard"`
	Keyword  string           `json:"keyword,omitempty"`
	Appeared []rules.RuleJSON `json:"appeared"`
	Vanished []rules.RuleJSON `json:"vanished"`
}

func (s *Server) handleDrift(w http.ResponseWriter, r *http.Request) {
	WriteDrift(w, r, s.snap.Load(), DriftParams{MaxAgeSeconds: s.retryAfterSeconds()})
}

// DriftParams configures WriteDrift the way RulesParams configures
// WriteRules: an ETag override for merged views and an optional
// Cache-Control lifetime.
type DriftParams struct {
	// ETag overrides the validator; empty derives SnapshotETag(snap).
	ETag string
	// MaxAgeSeconds, when positive, emits Cache-Control: max-age.
	MaxAgeSeconds int
}

// WriteDrift renders snap's delta as a /v1/drift response — shared by the
// single-miner server and the merged multi-shard view, whose delta compares
// consecutive merged snapshots. A nil snap answers 503. Like /v1/rules the
// response revalidates for free across the mine cadence: it carries the
// snapshot ETag and answers If-None-Match hits 304 (after param
// validation, so malformed requests still fail loudly).
func WriteDrift(w http.ResponseWriter, r *http.Request, snap *Snapshot, p DriftParams) {
	if snap == nil {
		WriteError(w, http.StatusServiceUnavailable, "no snapshot mined yet; ingest jobs and retry")
		return
	}
	q := r.URL.Query()
	limit, err := intParam(q.Get("limit"), 50)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "limit: %v", err)
		return
	}
	if notModified(w, r, snap, p.ETag, p.MaxAgeSeconds) {
		return
	}
	delta := snap.Delta
	resp := driftResponse{Seq: snap.Seq, PrevSeq: snap.PrevSeq, Jaccard: delta.Jaccard}
	if keyword := q.Get("keyword"); keyword != "" {
		item, name, ok := resolve(w, snap.Index, keyword)
		if !ok {
			return
		}
		resp.Keyword = name
		delta = stream.KeywordDelta(delta, item)
	}
	resp.Appeared = rules.ManyToJSON(truncate(delta.Appeared, limit), snap.View.Catalog)
	resp.Vanished = rules.ManyToJSON(truncate(delta.Vanished, limit), snap.View.Catalog)
	WriteJSON(w, http.StatusOK, resp)
}

// Health is the programmatic form of /healthz — the per-shard unit a
// coordinator aggregates into cluster health.
type Health struct {
	// Status is ok, degraded (last mine panicked or timed out; the last
	// good snapshot is still served) or draining (Stop has begun).
	Status         string  `json:"status"`
	DegradedReason string  `json:"degraded_reason,omitempty"`
	SnapshotSeq    int64   `json:"snapshot_seq"`
	SnapshotAgeS   float64 `json:"snapshot_age_s,omitempty"`
	SnapshotStale  bool    `json:"snapshot_stale,omitempty"`
}

// Health reports the server's current serving condition.
func (s *Server) Health() Health {
	s.mu.RLock()
	draining := s.closed
	s.mu.RUnlock()
	h := Health{Status: "ok"}
	if code := s.metrics.degraded.Load(); code != degradedNone {
		h.Status = "degraded"
		h.DegradedReason = degradeReasonString(code)
	}
	if draining {
		h.Status = "draining"
	}
	if snap := s.snap.Load(); snap != nil {
		h.SnapshotSeq = snap.Seq
		h.SnapshotAgeS = s.clock.Now().Sub(snap.MinedAt).Seconds()
		h.SnapshotStale = snap.Stale
	}
	return h
}

// handleHealth is the load-balancer probe. A draining server answers 503 —
// not a body-level status a balancer never parses — so traffic moves away
// the moment Stop begins instead of piling 503s onto /v1/jobs. A degraded
// server (last mine panicked or timed out) stays 200 — it is still serving
// its last good snapshot — but says so in the body for operators and
// alerting.
func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	h := s.Health()
	status := http.StatusOK
	if h.Status == "draining" {
		status = http.StatusServiceUnavailable
	}
	WriteJSON(w, status, h)
}

func intParam(raw string, def int) (int, error) {
	if raw == "" {
		return def, nil
	}
	v, err := strconv.Atoi(raw)
	if err != nil || v < 1 {
		return 0, fmt.Errorf("want a positive integer, got %q", raw)
	}
	return v, nil
}

func nonNegIntParam(raw string, def int) (int, error) {
	if raw == "" {
		return def, nil
	}
	v, err := strconv.Atoi(raw)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("want a non-negative integer, got %q", raw)
	}
	return v, nil
}

// floatParam parses an optional non-negative float; ok reports whether the
// parameter was present.
func floatParam(raw string) (v float64, ok bool, err error) {
	if raw == "" {
		return 0, false, nil
	}
	v, err = strconv.ParseFloat(raw, 64)
	if err != nil || math.IsNaN(v) || v < 0 {
		return 0, false, fmt.Errorf("want a non-negative number, got %q", raw)
	}
	return v, true, nil
}

func truncate(rs []rules.Rule, limit int) []rules.Rule {
	if len(rs) > limit {
		return rs[:limit]
	}
	return rs
}
