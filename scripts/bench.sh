#!/usr/bin/env bash
# bench.sh — run the mining hot-path benchmarks and record the numbers in
# BENCH_mining.json at the repo root, then the serving read-path
# benchmarks into BENCH_serving.json.
#
# Usage:
#   scripts/bench.sh                 # refresh the "current" numbers
#   scripts/bench.sh --set-baseline  # also copy them into "baseline"
#
# Every benchmark runs RUNS=5 times in the go test of its group, as
# scripts/bench_gate.sh runs it: both scripts take the groups, the run
# count and the parser from scripts/bench_groups.sh, so the gate compares
# like with like. Each entry
# records the median ns/op (ns_per_op, the number bench_gate.sh compares)
# with the min and max over the runs, and the median B/op and allocs/op.
# Both files carry the machine the runs came from: the CPU model go test
# reports, GOMAXPROCS (the -N suffix of the benchmark names) and the Go
# version. Compare only numbers captured back to back on one machine.
#
# The baseline section is meant to be captured once on the commit you are
# comparing against (e.g. before a performance change) and left alone
# afterwards: a plain run preserves whatever baseline the file already
# holds, so the JSON always shows before/after side by side.
#
# BENCH_serving.json needs no cross-commit baseline: the pre-index linear
# read path is kept in-tree as the equivalence oracle, so every run
# measures before (Linear) and after (Indexed) on the same snapshot and
# reports the speedup directly. The publish-step rows (rule diff, index
# build, snapshot assembly) work the same way: each stage's replaced
# implementation is kept as a test oracle and benchmarked as the Oracle
# (or Serial) twin in the same run. So is the cluster remerge: the union-window
# mine against the SON merge it replaced, kept as its test oracle, the
# cold keyword analysis: the sub-side probe pruning against the bucket scan
# it replaced, and rule generation: the count-table, radix-sorted Generate
# against the sharded, sort.Slice one it replaced. The ingest stages pair
# the same way: the one-pass NDJSON decoder against the json.Unmarshal
# oracle, and the WAL record encoder against json.Marshal. The rows with
# no oracle twin have a null before and speedup: the first publish's
# diff, the per-request keyword-list sort on each side of applyQuery's
# switch (slices.SortStableFunc of a 50-rule list, the radix sort of
# status=failed's 986-rule pruned characteristic list), and a whole
# 50-event ingest POST through the handler.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT=BENCH_mining.json
SET_BASELINE=0
[ "${1:-}" = "--set-baseline" ] && SET_BASELINE=1

raw=$(mktemp)
cpu=$(mktemp)
trap 'rm -f "$raw" "$cpu"' EXIT
. scripts/bench_groups.sh

# machine describes where the runs came from; GOMAXPROCS is read off the
# benchmark names, so every entry in one file must agree on it.
machine() {
    jq -n --argjson entries "$1" --arg cpu "$(head -1 "$cpu")" \
        --arg go "$(go version | awk '{print $3}')" --arg os "$(go env GOOS)/$(go env GOARCH)" '
      {cpu: $cpu, gomaxprocs: ($entries | map(.procs) | unique | if length == 1 then .[0] else . end),
       go: $go, os: $os}'
}

group_fpgrowth
group_incremental
group_generate
group_miner

current=$(aggregate | jq 'map(del(.procs))')
host=$(machine "$(aggregate)")

baseline=null
if [ "$SET_BASELINE" = 1 ]; then
    baseline=$current
elif [ -f "$OUT" ]; then
    baseline=$(jq '.baseline' "$OUT")
fi

jq -n --argjson current "$current" --argjson baseline "$baseline" --argjson machine "$host" \
    --arg benchtime "$BENCHTIME" --argjson count "$RUNS" '
  {generated_by: "scripts/bench.sh", machine: $machine, benchtime: $benchtime, count: $count,
   note: "per op; ns_per_op, bytes_per_op and allocs_per_op are medians over count runs, ns_min and ns_max the extremes; BenchmarkIncrementalMine runs 100 iterations instead of benchtime; baseline is the capture made with --set-baseline, current the latest run",
   baseline: $baseline, current: $current}' >"$OUT"
echo "wrote $OUT" >&2

# Serving read path, publish step, cluster remerge, cold keyword analysis,
# rule generation on the fixture, and ingest path: see the groups in
# scripts/bench_groups.sh.
SERVING_OUT=BENCH_serving.json
: >"$raw"
group_server
group_diff
group_remerge
group_pruning
group_generate_fixture

host=$(machine "$(aggregate)")
aggregate | jq --argjson machine "$host" --arg benchtime "$BENCHTIME" --argjson count "$RUNS" '
  map(del(.package, .procs)) | map({key: .name, value: .}) | from_entries as $b
  | {generated_by: "scripts/bench.sh", machine: $machine, benchtime: $benchtime, count: $count,
     note: "before is the in-tree oracle, after the current code, from the same run: the pre-index linear scan against the indexed read path on one 20k-job snapshot; the replaced publish-step stages against the current ones on the 5000-job PAI fixture window (the first publish diff and the per-request keyword-list sorts have no oracle, before null; the snapshot assembly against the serial build); the SON merge against the union-window mine on that window split over three shards; the bucket-scan pruning oracle against the sub-side probes in a cold keyword analysis of that window; the replaced Generate against the current one on the frequent itemsets of that window; the json.Unmarshal NDJSON decoder and json.Marshal against the one-pass decoder and record encoder on 50 PAI events, and the whole ingest POST (no oracle, before null). ns_per_op is the median over count runs, ns_min and ns_max the extremes; speedup is the ratio of medians",
     results: ([
       {query: "repeated ?keyword= analysis",
        before: $b.BenchmarkServingKeywordLinear,
        after: $b.BenchmarkServingKeywordIndexed},
       {query: "?sort=support&min_lift= page",
        before: $b.BenchmarkServingSortLinear,
        after: $b.BenchmarkServingSortIndexed},
       {query: "publish diff",
        before: $b.BenchmarkDiffOracle,
        after: $b.BenchmarkDiff},
       {query: "first publish diff (every rule appears)",
        before: null,
        after: $b.BenchmarkDiffFirst},
       {query: "publish index build",
        before: $b.BenchmarkNewRuleIndexOracle,
        after: $b.BenchmarkNewRuleIndex},
       {query: "publish snapshot assembly (diff beside index build)",
        before: $b.BenchmarkNewSnapshotSerial,
        after: $b.BenchmarkNewSnapshot},
       {query: "per-request ?sort= of a 50-rule keyword list",
        before: null,
        after: $b.BenchmarkApplyQuerySort},
       {query: "per-request ?sort= of a 986-rule keyword list",
        before: null,
        after: $b.BenchmarkApplyQuerySortRadix},
       {query: "cluster remerge",
        before: $b.BenchmarkRemergeOracle,
        after: $b.BenchmarkRemerge},
       {query: "rule generation",
        before: $b.BenchmarkGenerateFixtureOracle,
        after: $b.BenchmarkGenerateFixture}
     ] + [("failed", "gpu_type=T4", "user_tier=frequent") as $kw |
       {query: "keyword analysis (cold): \($kw)",
        before: $b["BenchmarkKeywordAnalysisMissOracle/\($kw)"],
        after: $b["BenchmarkKeywordAnalysisMiss/\($kw)"]}
     ] + [
       {query: "ingest NDJSON decode of a 50-event PAI body",
        before: $b.BenchmarkDecodeNDJSONOracle,
        after: $b.BenchmarkDecodeNDJSON},
       {query: "WAL record encode of one PAI event",
        before: $b.BenchmarkWALRecordOracle,
        after: $b.BenchmarkWALRecord},
       {query: "50-event PAI ingest POST through the handler into a WAL and the mining loop",
        before: null,
        after: $b.BenchmarkServeIngest}
     ] | map(. + {speedup: (if .before then (.before.ns_per_op / .after.ns_per_op) * 10 | round / 10 else null end)}))}
  ' >"$SERVING_OUT"
echo "wrote $SERVING_OUT" >&2
