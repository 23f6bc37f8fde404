// Command perfbench is the serving benchmark. It builds nothing itself (see
// run.sh): it launches the real cmd/serve binary, drives it over loopback
// HTTP with PAI traffic generated from -seed, checks the served rules
// against an in-process oracle, and prints every end-to-end metric by name
// with its unit. With -trace 1 it instead reports per-layer metrics: after
// the load phase it replays the windows the run published through each
// layer's public functions, wrapped in spans, and writes the spans out.
//
//	perfbench -serve bin/serve -workload query-mix -seed 3 -seconds 20 -trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
// NOTES.md explains the workloads, the rates and the metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
)

type options struct {
	workload  string
	seed      int64
	seconds   int
	trace     bool
	serve     string
	workdir   string
	rate      float64
	queryRate float64
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricDef names a metric and its unit; the two lists below are the
// benchmark's schema and must match BENCHMARK.json.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ingest_eps", "events/s"},
	{"ack_p50_ms", "ms"},
	{"visible_p50_ms", "ms"},
	{"visible_p99_ms", "ms"},
	{"query_p50_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

var perLayer = []metricDef{
	{"ingest.decode_us_per_event", "us"},
	{"ingest.enqueue_us", "us"},
	{"ingest.throttled", "count"},
	{"ingest.rejected", "count"},
	{"ingest.queue_depth_max", "count"},
	{"wal.append_us", "us"},
	{"wal.bytes_per_record", "bytes"},
	{"wal.sync_ms", "ms"},
	{"stream.observe_us_per_txn", "us"},
	{"stream.begin_view_ms", "ms"},
	{"stream.mine_ms", "ms"},
	{"stream.diff_ms", "ms"},
	{"stream.appeared", "count"},
	{"stream.vanished", "count"},
	{"fpgrowth.mine_ms", "ms"},
	{"fpgrowth.mine_ms_w1", "ms"},
	{"fpgrowth.itemsets", "count"},
	{"fpgrowth.inc_delta_us_per_txn", "us"},
	{"fpgrowth.inc_maintain_ms", "ms"},
	{"fpgrowth.inc_freeze_ms", "ms"},
	{"fpgrowth.inc_mine_ms", "ms"},
	{"fpgrowth.inc_rebuilds", "count"},
	{"fpgrowth.inc_dead_frac", "ratio"},
	{"rules.generate_ms", "ms"},
	{"rules.generate_ms_w1", "ms"},
	{"rules.count", "count"},
	{"rules.per_itemset", "ratio"},
	{"index.build_ms", "ms"},
	{"index.analysis_miss_ms", "ms"},
	{"index.analysis_hit_us", "us"},
	{"index.cache_hit_ratio", "ratio"},
	{"index.resolve_us", "us"},
	{"query.rules_us", "us"},
	{"query.sort_us", "us"},
	{"query.keyword_us", "us"},
	{"query.drift_us", "us"},
	{"query.not_modified_share", "ratio"},
	{"query.resp_bytes", "bytes"},
	{"watch.publish_ms", "ms"},
	{"watch.event_bytes", "bytes"},
	{"watch.dropped_subs", "count"},
	{"server.mines", "count"},
	{"server.last_mine_ms", "ms"},
	{"server.unattributed_ms", "ms"},
	{"checkpoint.bytes", "bytes"},
	{"shard.ingest_us", "us"},
	{"shard.skew", "ratio"},
	{"shard.remerge_ms", "ms"},
	{"shard.union_txns", "count"},
	{"shard.delta_txns", "count"},
	{"shard.merges_per_publish", "ratio"},
	{"son.mine_shards_ms", "ms"},
	{"loadgen.lag_p99_ms", "ms"},
	{"loadgen.lag_max_ms", "ms"},
	{"trace.ack_p50_ms", "ms"},
	{"trace.ack_p95_ms", "ms"},
	{"trace.visible_p50_ms", "ms"},
	{"trace.query_p50_ms", "ms"},
	{"trace.query_p99_ms", "ms"},
}

func main() {
	os.Exit(run())
}

func run() int {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: ingest-steady, query-mix or sharded-merge")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated PAI trace and the query mix")
	flag.IntVar(&o.seconds, "seconds", 20, "length of the measured load phase")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run instead of end-to-end ones")
	flag.StringVar(&o.serve, "serve", "", "path to the cmd/serve binary under test")
	flag.StringVar(&o.workdir, "workdir", ".bench_build", "directory for server state, logs and span dumps")
	flag.Float64Var(&o.rate, "rate", 0, "override the workload's ingest rate in events/s (saturation calibration)")
	flag.Float64Var(&o.queryRate, "query-rate", 0, "override the workload's GET rate in requests/s (saturation calibration)")
	flag.Parse()
	o.trace = trace == 1
	w, ok := workloads[o.workload]
	switch {
	case !ok:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", o.workload)
		return 2
	case o.serve == "":
		fmt.Fprintln(os.Stderr, "perfbench: -serve is required")
		return 2
	case o.seconds < 1 || (trace != 0 && trace != 1):
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	var err error
	if o.workdir, err = filepath.Abs(o.workdir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}

	prov := collectProvenance(o)
	fmt.Fprintf(os.Stderr, "perfbench: %s\n", prov)
	rep, err := runWorkload(w, o)
	var invalid *invalidRunError
	switch {
	case errors.As(err, &invalid):
		fmt.Fprintln(os.Stderr, "perfbench: run invalid, no numbers reported:", err)
		return 3
	case err != nil:
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	res, err := buildResult(rep, o.trace)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if rep.gateErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: correctness gate failed:", rep.gateErr)
	}
	for _, d := range schema(o.trace) {
		if mt, ok := res.Metrics[d.name]; ok {
			fmt.Printf("%-32s %14.4f %s\n", d.name, mt.Value, mt.Unit)
		}
	}
	if err := writeRunRecord(o, prov, rep, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func schema(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

// buildResult assembles the result line: every metric of the run's schema,
// or none when the correctness gate failed.
func buildResult(rep *report, traced bool) (result, error) {
	res := result{Correct: rep.gateErr == nil, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metric{}}
	if rep.gateErr != nil {
		return res, nil
	}
	for _, d := range schema(traced) {
		v, ok := rep.metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return res, fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	return res, nil
}

// writeRunRecord keeps the provenance, every measured number (including
// the ones not in the schema) and, for traced runs, the spans, in
// <workdir>/runs/<workload>-seed<seed>-trace<0|1>.json.
func writeRunRecord(o options, prov provenance, rep *report, res result) error {
	dir := filepath.Join(o.workdir, "runs")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	names := make([]string, 0, len(rep.metrics))
	for n := range rep.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	all := make(map[string]float64, len(names))
	for _, n := range names {
		all[n] = rep.metrics[n]
	}
	rec := struct {
		Provenance provenance         `json:"provenance"`
		Result     result             `json:"result"`
		Measured   map[string]float64 `json:"measured"`
		Gate       string             `json:"gate"`
		Spans      []span             `json:"spans,omitempty"`
	}{prov, res, all, "ok", rep.spans}
	if rep.gateErr != nil {
		rec.Gate = rep.gateErr.Error()
	}
	data, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return err
	}
	trace := 0
	if o.trace {
		trace = 1
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", o.workload, o.seed, trace)), data, 0o644)
}
