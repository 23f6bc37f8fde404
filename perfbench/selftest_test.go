package main

// Self-tests of the benchmark: a seconds-long smoke run of every workload,
// untraced and traced, against the real cmd/serve binary. Run from this
// directory with
//
//	go test -timeout 20m .
//
// They check the output schema against BENCHMARK.json, that the
// correctness gate passes on the real server, and that each gate fails
// when the answer it checks is damaged on purpose.

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/itemset"
	"repro/internal/server"
	"repro/internal/shard"
)

func buildServe(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "serve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/serve")
	cmd.Dir = ".."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build serve: %v\n%s", err, out)
	}
	return bin
}

func TestSchemaMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit string
			Better     string  `json:"better"`
			Bound      float64 `json:"bound"`
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	// The harness may hold more workloads than BENCHMARK.json gates
	// (sharded-merge runs by hand only; NOTES.md says why).
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q is not implemented", w.Name)
		}
	}
	check := func(kind string, got []struct{ name, unit string }, defs []metricDef) {
		if len(got) != len(defs) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the harness %d", kind, len(got), len(defs))
			return
		}
		for i, d := range defs {
			if got[i].name != d.name || got[i].unit != d.unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], harness %s [%s]", kind, i, got[i].name, got[i].unit, d.name, d.unit)
			}
		}
	}
	var e2e, layer []struct{ name, unit string }
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, struct{ name, unit string }{m.Name, m.Unit})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range spec.PerLayer {
		layer = append(layer, struct{ name, unit string }{m.Name, m.Unit})
	}
	check("end_to_end", e2e, endToEnd)
	check("per_layer", layer, perLayer)
}

func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("launches cmd/serve; takes minutes")
	}
	serve := buildServe(t)
	for _, name := range []string{"ingest-steady", "query-mix", "sharded-merge"} {
		for _, traced := range []bool{false, true} {
			o := options{workload: name, seed: 1, seconds: 2, trace: traced, serve: serve, workdir: t.TempDir()}
			rep, err := runWorkload(workloads[name], o)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if rep.gateErr != nil {
				t.Fatalf("%s traced=%v: gate failed on the real server: %v", name, traced, rep.gateErr)
			}
			res, err := buildResult(rep, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			checkResultLine(t, res, schema(traced))
		}
	}
}

// TestGateRejectsDamage hands each gate an answer it must accept and the
// same answer damaged on purpose, which it must refuse; a refused run
// reports correct=false and no numbers.
func TestGateRejectsDamage(t *testing.T) {
	events, err := genEvents(1500, 1)
	if err != nil {
		t.Fatal(err)
	}
	w := *workloads["query-mix"]
	w.window = 1000
	cfg := w.serverConfig()

	body, err := oracleRules(cfg, events)
	if err != nil {
		t.Fatal(err)
	}
	if err := gateSingle(cfg, events, body); err != nil {
		t.Fatalf("single-server gate refused the oracle's own answer: %v", err)
	}
	if err := gateSingle(cfg, events, dropRule(t, body)); err == nil {
		t.Fatal("single-server gate passed an answer missing a rule")
	}
	var reordered []server.Event
	reordered = append(append(reordered, events[len(events)/2:]...), events[:len(events)/2]...)
	if err := gateSingle(cfg, reordered, body); err == nil {
		t.Fatal("single-server gate passed against an oracle fed the events out of order")
	}

	if err := gateMergedTotal(len(events), len(events)); err != nil {
		t.Fatal(err)
	}
	if err := gateMergedTotal(len(events)-1, len(events)); err == nil {
		t.Fatal("merged-total gate passed a view missing an event")
	}

	cfg.WindowSize, cfg.MineBatch, cfg.MineInterval = 500, math.MaxInt32, time.Hour
	c, err := shard.New(shard.Config{Shards: 3, TenantField: tenantField, Shard: cfg})
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		if err := c.Ingest(ev); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := c.Stop(ctx); err != nil {
		t.Fatal(err)
	}
	merged, _ := c.Merged()
	rec := httptest.NewRecorder()
	server.WriteRules(rec, httptest.NewRequest("GET", fmt.Sprintf("/v1/rules?limit=%d", len(merged.View.Rules)), nil), merged, server.RulesParams{Shard: -1})
	var wins [][]itemset.Set
	var cats []*itemset.Catalog
	for s := 0; s < c.Shards(); s++ {
		v := c.Shard(s).Snapshot().View
		wins, cats = append(wins, v.Window), append(cats, v.Catalog)
	}
	if err := gateMergedRules(rec.Body.Bytes(), wins, cats, cfg); err != nil {
		t.Fatalf("merged gate refused the cluster's own answer: %v", err)
	}
	if err := gateMergedRules(dropRule(t, rec.Body.Bytes()), wins, cats, cfg); err == nil {
		t.Fatal("merged gate passed an answer missing a rule")
	}

	res, err := buildResult(&report{gateErr: &gateError{"damaged"}, attempted: 1}, false)
	if err != nil || res.Correct || len(res.Metrics) != 0 {
		t.Fatalf("a failed gate must report correct=false and no numbers, got %+v, %v", res, err)
	}
}

// dropRule removes the last rule from a /v1/rules body.
func dropRule(t *testing.T, body []byte) []byte {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	var rs []json.RawMessage
	if err := json.Unmarshal(m["rules"], &rs); err != nil || len(rs) == 0 {
		t.Fatalf("no rules to drop: %v", err)
	}
	out, err := json.Marshal(rs[:len(rs)-1])
	if err != nil {
		t.Fatal(err)
	}
	m["rules"] = out
	damaged, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return damaged
}

// checkResultLine verifies the printed JSON line has exactly the contract's
// keys and one numeric value with its unit per schema metric.
func checkResultLine(t *testing.T, res result, defs []metricDef) {
	t.Helper()
	line, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(line, &top); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := top[k]; !ok {
			t.Errorf("result line lacks %q: %s", k, line)
		}
	}
	if len(top) != 4 {
		t.Errorf("result line has %d keys, want 4: %s", len(top), line)
	}
	if !res.Correct || res.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d", res.Correct, res.Attempted)
	}
	var metrics map[string]map[string]json.RawMessage
	if err := json.Unmarshal(top["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(defs) {
		t.Errorf("%d metrics, schema has %d", len(metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := metrics[d.name]
		if !ok {
			t.Errorf("metric %s missing", d.name)
			continue
		}
		var unit string
		var value float64
		if json.Unmarshal(m["unit"], &unit) != nil || unit != d.unit || json.Unmarshal(m["value"], &value) != nil || len(m) != 2 {
			t.Errorf("metric %s: %v", d.name, m)
		}
	}
}
