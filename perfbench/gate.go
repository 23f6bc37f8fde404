package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"sort"
	"strings"
	"time"

	"repro/internal/fpgrowth"
	"repro/internal/itemset"
	"repro/internal/rules"
	"repro/internal/server"
	"repro/internal/transaction"
)

// gateError is a correctness failure: the run reports no numbers.
type gateError struct{ msg string }

func (e *gateError) Error() string { return e.msg }

// gateSingle compares the live server's final full /v1/rules body with an
// in-process server.New oracle under the same config, fed the accepted
// events that snapshot covers, in order, and mined once at Stop. Everything
// but seq and mined_at must match byte for byte.
func gateSingle(cfg server.Config, accepted []server.Event, live []byte) error {
	h, err := parseHead(live)
	if err != nil {
		return &gateError{fmt.Sprintf("live rules body: %v", err)}
	}
	if h.Total > len(accepted) {
		return &gateError{fmt.Sprintf("snapshot covers %d events, %d were accepted", h.Total, len(accepted))}
	}
	oracle, err := oracleRules(cfg, accepted[:h.Total])
	if err != nil {
		return err
	}
	want, err := stripVolatile(oracle)
	if err != nil {
		return err
	}
	got, err := stripVolatile(live)
	if err != nil {
		return &gateError{fmt.Sprintf("live rules body: %v", err)}
	}
	if !bytes.Equal(got, want) {
		return &gateError{fmt.Sprintf("served rules differ from the oracle's (%d vs %d bytes; live rule_count %d)", len(got), len(want), h.RuleCount)}
	}
	return nil
}

// oracleRules runs accepted through a fresh in-process server that mines
// only at Stop, and returns its full /v1/rules body.
func oracleRules(cfg server.Config, accepted []server.Event) ([]byte, error) {
	cfg.MineBatch = math.MaxInt32
	cfg.MineInterval = 24 * time.Hour
	cfg.QueueSize = len(accepted) + 1
	cfg.WALDir, cfg.StateDir = "", ""
	s, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	for i, ev := range accepted {
		if err := s.Enqueue(ev); err != nil {
			return nil, fmt.Errorf("oracle enqueue %d: %w", i, err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := s.Stop(ctx); err != nil {
		return nil, err
	}
	count := 1
	if snap := s.Snapshot(); snap != nil {
		count = max(len(snap.View.Rules), 1)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", fmt.Sprintf("/v1/rules?limit=%d", count), nil))
	return rec.Body.Bytes(), nil
}

// stripVolatile drops the fields that legitimately differ between two
// servers (publish seq and wall-clock mine time) and re-encodes the rest
// canonically.
func stripVolatile(body []byte) ([]byte, error) {
	var m map[string]json.RawMessage
	if err := json.Unmarshal(body, &m); err != nil {
		return nil, err
	}
	delete(m, "seq")
	delete(m, "mined_at")
	return json.Marshal(m)
}

// gateMergedTotal: once every shard has published every event, the merged
// view's observed_total equals the accepted count.
func gateMergedTotal(observed, accepted int) error {
	if observed != accepted {
		return &gateError{fmt.Sprintf("merged observed_total %d, accepted %d", observed, accepted)}
	}
	return nil
}

// gateMergedRules checks the live merged rule set against
// rules.Generate(fpgrowth.Mine(...)) over the union of the shards' final
// windows. Shard catalogs number items differently, so both sides are
// compared by item name with each rule side sorted.
func gateMergedRules(live []byte, windows [][]itemset.Set, catalogs []*itemset.Catalog, cfg server.Config) error {
	var body struct {
		Rules []rules.RuleJSON `json:"rules"`
	}
	if err := json.Unmarshal(live, &body); err != nil {
		return &gateError{fmt.Sprintf("merged rules body: %v", err)}
	}
	cat := itemset.NewCatalog()
	db := transaction.NewDB(cat)
	for s, win := range windows {
		for _, txn := range win {
			db.AddNames(catalogs[s].Names(txn)...)
		}
	}
	minSupport, maxLen, minLift := thresholds(cfg)
	frequent := fpgrowth.Mine(db, fpgrowth.Options{MinCount: minCount(minSupport, db.Len()), MaxLen: maxLen})
	want := rules.ManyToJSON(rules.Generate(frequent, db.Len(), rules.Options{MinLift: minLift}), cat)
	got, exp := canonicalRules(body.Rules), canonicalRules(want)
	if len(got) != len(exp) {
		return &gateError{fmt.Sprintf("merged view serves %d rules, the union window mines %d", len(got), len(exp))}
	}
	for i := range got {
		if got[i] != exp[i] {
			return &gateError{fmt.Sprintf("merged rule differs from the union mine: %s vs %s", got[i], exp[i])}
		}
	}
	return nil
}

func canonicalRules(rs []rules.RuleJSON) []string {
	out := make([]string, len(rs))
	for i, r := range rs {
		r.Antecedent = append([]string(nil), r.Antecedent...)
		r.Consequent = append([]string(nil), r.Consequent...)
		sort.Strings(r.Antecedent)
		sort.Strings(r.Consequent)
		b, _ := json.Marshal(r)
		out[i] = string(b)
	}
	sort.Strings(out)
	return out
}

// thresholds are the mining thresholds cfg resolves to: server.Config's
// documented defaults (support 0.05, length 5, lift 1.5) wherever it leaves
// them zero, as every workload does.
func thresholds(cfg server.Config) (minSupport float64, maxLen int, minLift float64) {
	minSupport, maxLen, minLift = cfg.MinSupport, cfg.MaxLen, cfg.MinLift
	if minSupport == 0 {
		minSupport = 0.05
	}
	if maxLen == 0 {
		maxLen = 5
	}
	if minLift == 0 {
		minLift = 1.5
	}
	return minSupport, maxLen, minLift
}

// minCount is the absolute support threshold over n transactions.
func minCount(minSupport float64, n int) int {
	return max(int(math.Ceil(minSupport*float64(n))), 1)
}

// route strips the query string from a request path.
func route(path string) string {
	r, _, _ := strings.Cut(path, "?")
	return r
}
