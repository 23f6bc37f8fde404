package server

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/itemset"
	"repro/internal/pruning"
	"repro/internal/rules"
	"repro/internal/stream"
)

// writeRulesLinear is the pre-index read path, kept verbatim as the
// equivalence oracle: every WriteRules feature implemented as per-request
// linear scans over the snapshot — resolveKeyword walks the catalog, the
// keyword filter walks every rule, pruning and splitting re-run per
// request, and sorting copies and re-sorts the full rule list. The indexed
// path must be byte-identical to this for every input.
func writeRulesLinear(w http.ResponseWriter, r *http.Request, snap *Snapshot, p RulesParams) {
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
	etag := p.ETag
	if etag == "" {
		etag = SnapshotETag(snap)
	}
	w.Header().Set("ETag", etag)
	if p.MaxAgeSeconds > 0 {
		w.Header().Set("Cache-Control", fmt.Sprintf("max-age=%d", p.MaxAgeSeconds))
	}
	if inm := r.Header.Get("If-None-Match"); inm != "" && etagMatches(inm, etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	view := snap.View
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
		resp.Rules = rules.ManyToJSON(applyQuery(view.Rules, q), view.Catalog)
		WriteJSON(w, http.StatusOK, resp)
		return
	}
	item, name, err := resolveKeyword(view.Catalog, q.keyword)
	if err != nil {
		status := http.StatusNotFound
		if strings.Contains(err.Error(), "ambiguous") {
			status = http.StatusBadRequest
		}
		WriteError(w, status, "%v", err)
		return
	}
	resp.Keyword = name
	var relevant []rules.Rule
	for _, rule := range view.Rules {
		if rule.Antecedent.Contains(item) || rule.Consequent.Contains(item) {
			relevant = append(relevant, rule)
		}
	}
	kept := relevant
	if q.prune {
		var stats pruning.Stats
		kept, stats = pruning.Prune(relevant, item, pruning.Options{CLift: p.CLift, CSupp: p.CSupp})
		resp.PruneStats = &pruneStatsJSON{Input: stats.Input, Kept: stats.Kept, ByCondition: stats.ByCond}
	}
	split := rules.Split(kept, item)
	if q.kind == "" || q.kind == "all" || q.kind == "cause" {
		resp.Cause = rules.ManyToJSON(applyQuery(split.Cause, q), view.Catalog)
	}
	if q.kind == "" || q.kind == "all" || q.kind == "characteristic" {
		resp.Characteristic = rules.ManyToJSON(applyQuery(split.Characteristic, q), view.Catalog)
	}
	WriteJSON(w, http.StatusOK, resp)
}

// resolveKeyword is the linear reference for RuleIndex.Resolve: exact item
// name first, then unique substring, found by walking the whole catalog.
// Ambiguity is an error listing the candidates.
func resolveKeyword(c *itemset.Catalog, keyword string) (itemset.Item, string, error) {
	if id, ok := c.Lookup(keyword); ok {
		return id, keyword, nil
	}
	var matches []string
	var matchID itemset.Item
	for id := itemset.Item(0); int(id) < c.Len(); id++ {
		name := c.Name(id)
		if strings.Contains(name, keyword) {
			matches = append(matches, name)
			matchID = id
		}
	}
	switch len(matches) {
	case 0:
		return 0, "", fmt.Errorf("keyword %q matches no item in the current snapshot", keyword)
	case 1:
		return matchID, matches[0], nil
	default:
		if len(matches) > 8 {
			matches = append(matches[:8], "…")
		}
		return 0, "", fmt.Errorf("keyword %q is ambiguous: %s", keyword, strings.Join(matches, ", "))
	}
}

// minedSnapshot pushes generated PAI jobs through the server's own encode
// pipeline (bootstrap-fitted bins, tiers, prevalence drop) and miner,
// returning a published-shaped snapshot — the read path's input without
// the HTTP and mining-loop machinery around it.
func minedSnapshot(tb testing.TB, jobs, window int, seed int64) *Snapshot {
	tb.Helper()
	lines := paiNDJSON(tb, jobs, seed)
	idx := newSpecIndex(PAISpec())
	enc := newEncoder(idx, 500, 0.8, []string{"status=failed"})
	miner, err := stream.New(nil, stream.Config{WindowSize: window, Workers: 1})
	if err != nil {
		tb.Fatal(err)
	}
	observe := func(txns [][]string) {
		for _, items := range txns {
			miner.ObserveNames(items...)
		}
	}
	for _, line := range lines {
		var ev Event
		if err := json.Unmarshal(line, &ev); err != nil {
			tb.Fatal(err)
		}
		if err := idx.validate(ev); err != nil {
			tb.Fatalf("generated event rejected: %v", err)
		}
		observe(enc.add(ev))
	}
	observe(enc.flush())
	view := miner.BeginView().Mine()
	snap := &Snapshot{
		Seq:     int64(seed%5) + 1,
		PrevSeq: int64(seed % 5),
		MinedAt: time.Unix(1700000000, 0).UTC(),
		View:    view,
		Delta:   stream.Diff(nil, view.Rules),
	}
	snap.Index = NewRuleIndex(view)
	return snap
}

// catalogNames lists every item name in the snapshot's catalog.
func catalogNames(snap *Snapshot) []string {
	c := snap.View.Catalog
	names := make([]string, c.Len())
	for i := range names {
		names[i] = c.Name(itemset.Item(i))
	}
	return names
}

// randomRulesURL builds one randomized /v1/rules query: valid and invalid
// parameter values, exact and substring and bogus keywords, every sort
// order, metric floors straddling the real value range, and offsets past
// the end.
func randomRulesURL(rng *rand.Rand, names []string) string {
	var parts []string
	if rng.Intn(2) == 0 && len(names) > 0 {
		kw := names[rng.Intn(len(names))]
		switch rng.Intn(4) {
		case 0:
			// Substring form, possibly ambiguous across names.
			if i := strings.IndexByte(kw, '='); i >= 0 && i+1 < len(kw) && rng.Intn(2) == 0 {
				kw = kw[i+1:]
			}
		case 1:
			kw = "no-such-item-anywhere"
		}
		parts = append(parts, "keyword="+kw)
	}
	switch rng.Intn(5) {
	case 0:
		parts = append(parts, "sort=lift")
	case 1:
		parts = append(parts, "sort=support")
	case 2:
		parts = append(parts, "sort=confidence")
	case 3:
		parts = append(parts, "sort=bogus")
	}
	if rng.Intn(3) == 0 {
		parts = append(parts, fmt.Sprintf("min_lift=%.2f", rng.Float64()*4))
	}
	if rng.Intn(3) == 0 {
		parts = append(parts, fmt.Sprintf("min_support=%.3f", rng.Float64()*0.4))
	}
	if rng.Intn(2) == 0 {
		parts = append(parts, fmt.Sprintf("limit=%d", 1+rng.Intn(80)))
	}
	if rng.Intn(3) == 0 {
		parts = append(parts, fmt.Sprintf("offset=%d", rng.Intn(60)))
	}
	switch rng.Intn(6) {
	case 0:
		parts = append(parts, "kind=cause")
	case 1:
		parts = append(parts, "kind=characteristic")
	case 2:
		parts = append(parts, "kind=all")
	case 3:
		parts = append(parts, "kind=bogus")
	}
	if rng.Intn(3) == 0 {
		parts = append(parts, "prune=false")
	}
	if rng.Intn(8) == 0 {
		parts = append(parts, "limit=bogus")
	}
	u := "/v1/rules"
	if len(parts) > 0 {
		u += "?" + strings.Join(parts, "&")
	}
	return u
}

func record(h func(http.ResponseWriter, *http.Request), url, inm string) *httptest.ResponseRecorder {
	req := httptest.NewRequest("GET", url, nil)
	if inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	rec := httptest.NewRecorder()
	h(rec, req)
	return rec
}

// TestIndexedEquivalenceRandomized is the tentpole's safety net: across 25
// seeded snapshots and hundreds of randomized queries each, the indexed
// read path must return byte-identical status, ETag and JSON body to the
// pre-index linear scan — including error responses, repeated queries
// served from the analysis cache, and conditional requests.
func TestIndexedEquivalenceRandomized(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized equivalence suite is slow")
	}
	for seed := int64(0); seed < 25; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed*7919 + 17))
			jobs := 900 + int(seed)*40
			window := 600 + int(seed%7)*120
			snap := minedSnapshot(t, jobs, window, seed)
			names := catalogNames(snap)
			params := RulesParams{Shard: -1, MaxAgeSeconds: 2}
			if seed%3 == 0 {
				params = RulesParams{Tenant: "t0", Shard: 1, CLift: 1.2, CSupp: 2.0, MaxAgeSeconds: 2}
			}
			indexed := func(w http.ResponseWriter, r *http.Request) { WriteRules(w, r, snap, params) }
			linear := func(w http.ResponseWriter, r *http.Request) { writeRulesLinear(w, r, snap, params) }
			for i := 0; i < 120; i++ {
				url := randomRulesURL(rng, names)
				inm := ""
				if rng.Intn(10) == 0 {
					inm = SnapshotETag(snap)
				}
				want := record(linear, url, inm)
				// Twice through the indexed path: the second hit exercises
				// the analysis and resolution caches.
				for pass := 0; pass < 2; pass++ {
					got := record(indexed, url, inm)
					if got.Code != want.Code {
						t.Fatalf("%s (pass %d): status %d, linear %d\nbody: %s", url, pass, got.Code, want.Code, got.Body)
					}
					if got.Body.String() != want.Body.String() {
						t.Fatalf("%s (pass %d): body diverged\nindexed: %s\nlinear:  %s", url, pass, got.Body, want.Body)
					}
					if got.Header().Get("ETag") != want.Header().Get("ETag") {
						t.Fatalf("%s: ETag %q vs %q", url, got.Header().Get("ETag"), want.Header().Get("ETag"))
					}
				}
			}
			// The same queries against a fresh index, whose analysis and
			// resolution caches start cold, must agree too.
			bare := *snap
			bare.Index = NewRuleIndex(snap.View)
			rng2 := rand.New(rand.NewSource(seed*7919 + 17))
			for i := 0; i < 20; i++ {
				url := randomRulesURL(rng2, names)
				want := record(linear, url, "")
				got := record(func(w http.ResponseWriter, r *http.Request) { WriteRules(w, r, &bare, params) }, url, "")
				if got.Code != want.Code || got.Body.String() != want.Body.String() {
					t.Fatalf("fresh index %s: status %d vs %d\nindexed: %s\nlinear:  %s", url, got.Code, want.Code, got.Body, want.Body)
				}
			}
		})
	}
}
