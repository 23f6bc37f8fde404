#!/usr/bin/env bash
# bench.sh — run the mining hot-path benchmarks and record the numbers in
# BENCH_mining.json at the repo root, then the serving read-path
# benchmarks into BENCH_serving.json.
#
# Usage:
#   scripts/bench.sh                 # refresh the "current" numbers
#   scripts/bench.sh --set-baseline  # also copy them into "baseline"
#
# Every benchmark runs RUNS=5 times, the count scripts/bench_gate.sh
# takes its median over, so the gate compares like with like. Each entry
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
# build, snapshot assembly, per-request keyword-list sort) work the same
# way: each stage's replaced implementation is kept as a test oracle and
# benchmarked as the Oracle (or Serial) twin in the same run. So is the cluster remerge: the union-window
# mine against the SON merge it replaced, kept as its test oracle, the
# cold keyword analysis: the sub-side probe pruning against the bucket scan
# it replaced, and rule generation: the count-table, radix-sorted Generate
# against the sharded, sort.Slice one it replaced. The ingest stages pair
# the same way: the one-pass NDJSON decoder against the json.Unmarshal
# oracle, and the WAL record encoder against json.Marshal. The two rows with
# no oracle twin, the first publish's diff and a whole 50-event ingest POST
# through the handler, have a null before and speedup.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT=BENCH_mining.json
BENCHTIME=${BENCHTIME:-1s}
readonly RUNS=5
SET_BASELINE=0
[ "${1:-}" = "--set-baseline" ] && SET_BASELINE=1

raw=$(mktemp)
cpu=$(mktemp)
trap 'rm -f "$raw" "$cpu"' EXIT

# run <pkg> <bench regexp> appends one tab-separated line per benchmark run:
# package, name, GOMAXPROCS, iterations, ns/op, B/op, allocs/op.
run() {
    echo ">> go test -run=NONE -bench '$2' -benchtime=$BENCHTIME -count=$RUNS -benchmem $1" >&2
    go test -run=NONE -bench "$2" -benchtime="$BENCHTIME" -count="$RUNS" -benchmem "$1" |
        awk -v pkg="$1" -v cpufile="$cpu" '
        /^cpu: / { sub(/^cpu: /, ""); print > cpufile; next }
        /^Benchmark/ && /ns\/op/ {
            name=$1; procs=1
            if (match(name, /-[0-9]+$/)) { procs=substr(name, RSTART+1); name=substr(name, 1, RSTART-1) }
            ns=""; bytes=""; allocs=""
            # Benchmarks may report custom metrics (e.g. jobs/op), so find
            # each unit by name instead of assuming fixed columns.
            for (i = 3; i <= NF; i++) {
                if ($i == "ns/op") ns = $(i-1)
                else if ($i == "B/op") bytes = $(i-1)
                else if ($i == "allocs/op") allocs = $(i-1)
            }
            printf "%s\t%s\t%s\t%s\t%s\t%s\t%s\n", pkg, name, procs, $2, ns, bytes, allocs
        }' >>"$raw"
}

# aggregate folds the runs of each benchmark into one entry: medians of
# ns/op, B/op and allocs/op plus the ns/op min and max, in first-run order.
aggregate() {
    jq -Rn '
      def median: sort | if length % 2 == 1 then .[length / 2 | floor]
                         else (.[length / 2 - 1] + .[length / 2]) / 2 end;
      [inputs | split("\t") |
       {package: .[0], name: .[1], procs: (.[2] | tonumber), iterations: (.[3] | tonumber),
        ns: (.[4] | tonumber), bytes: (.[5] | tonumber), allocs: (.[6] | tonumber)}]
      | . as $runs
      | [$runs[] | {package, name}] | unique_by([.package, .name])
      | map(. as $k | [$runs[] | select(.package == $k.package and .name == $k.name)] as $r
            | {package: $k.package, name: $k.name, procs: $r[0].procs, runs: ($r | length),
               ns_per_op: ([$r[].ns] | median), ns_min: ([$r[].ns] | min), ns_max: ([$r[].ns] | max),
               bytes_per_op: ([$r[].bytes] | median), allocs_per_op: ([$r[].allocs] | median),
               first: ([$runs[] | .package + "\t" + .name] | index($k.package + "\t" + $k.name))})
      | sort_by(.first) | map(del(.first))' <"$raw"
}

# machine describes where the runs came from; GOMAXPROCS is read off the
# benchmark names, so every entry in one file must agree on it.
machine() {
    jq -n --argjson entries "$1" --arg cpu "$(head -1 "$cpu")" \
        --arg go "$(go version | awk '{print $3}')" --arg os "$(go env GOOS)/$(go env GOARCH)" '
      {cpu: $cpu, gomaxprocs: ($entries | map(.procs) | unique | if length == 1 then .[0] else . end),
       go: $go, os: $os}'
}

# FP-Growth engine: initial tree construction and mining across densities
# and thresholds (20k-transaction class databases).
run ./internal/fpgrowth 'BenchmarkBuildInitial|BenchmarkMineByDensity|BenchmarkMineByThreshold'
# Windowed-delta serving pattern: 20k window advancing 200 txns per tick,
# full tree rebuild per mine vs the maintained incremental tree. It runs a
# fixed 100 ticks (one window turnover), the count scripts/bench_gate.sh
# uses too: the incremental tree's rebuilds are amortized over the ticks,
# so at a b.N that follows the machine's speed its B/op would as well.
BENCHTIME=100x run ./internal/fpgrowth 'BenchmarkIncrementalMine'
# Rule generation over the mined lattice.
run ./internal/rules 'BenchmarkGenerate$'
# End-to-end: 20k-job PAI trace through the miner, and the HTTP server
# ingest+mine loop.
run . 'BenchmarkMinerFPGrowth$|BenchmarkServerIngestMine$'

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

# Serving read path: repeated /v1/rules queries against one 20k-job
# snapshot, the indexed handlers against the in-tree linear oracle. Then
# the publish step on the shared 5000-job PAI fixture (internal/benchfix):
# stream.Diff and NewRuleIndex against their oracles, the first publish's
# diff, NewSnapshot (the diff beside the index build) against the serial
# build, plus the 50-rule per-request sort. Then the cluster remerge of that fixture window split
# over three shards, against the SON merge oracle. Then a cold keyword
# analysis on a fresh index of the fixture's second publish, for each
# keyword perfbench's query-mix sends, against the pruning oracle. Then
# rule generation from that publish's frequent itemsets, against the
# Generate oracle. Last, the ingest path on 50 generated PAI events: the
# NDJSON decode of one POST body, one WAL record encode, and the whole POST
# through the handler into a WAL until the mining loop has taken its events.
SERVING_OUT=BENCH_serving.json
: >"$raw"
run ./internal/server 'BenchmarkServing|BenchmarkNewRuleIndex|BenchmarkNewSnapshot|BenchmarkApplyQuerySort|BenchmarkKeywordAnalysisMiss|BenchmarkDecodeNDJSON|BenchmarkWALRecord|BenchmarkServeIngest$'
run ./internal/stream 'BenchmarkDiff'
run ./internal/shard 'BenchmarkRemerge'
run ./internal/pruning 'BenchmarkKeywordAnalysisMissOracle'
run ./internal/rules 'BenchmarkGenerateFixture'

host=$(machine "$(aggregate)")
aggregate | jq --argjson machine "$host" --arg benchtime "$BENCHTIME" --argjson count "$RUNS" '
  map(del(.package, .procs)) | map({key: .name, value: .}) | from_entries as $b
  | {generated_by: "scripts/bench.sh", machine: $machine, benchtime: $benchtime, count: $count,
     note: "before is the in-tree oracle, after the current code, from the same run: the pre-index linear scan against the indexed read path on one 20k-job snapshot; the replaced publish-step stages against the current ones on the 5000-job PAI fixture window (the first publish diff has no oracle, before null; the snapshot assembly against the serial build); the SON merge against the union-window mine on that window split over three shards; the bucket-scan pruning oracle against the sub-side probes in a cold keyword analysis of that window; the replaced Generate against the current one on the frequent itemsets of that window; the json.Unmarshal NDJSON decoder and json.Marshal against the one-pass decoder and record encoder on 50 PAI events, and the whole ingest POST (no oracle, before null). ns_per_op is the median over count runs, ns_min and ns_max the extremes; speedup is the ratio of medians",
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
        before: $b.BenchmarkApplyQuerySortOracle,
        after: $b.BenchmarkApplyQuerySort},
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
