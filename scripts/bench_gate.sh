#!/usr/bin/env bash
# bench_gate.sh — CI perf gate: re-run the headline benchmarks and fail if
# any regresses more than THRESHOLD_PCT% in ns/op against the numbers
# checked in at the repo root (BENCH_mining.json "current", the
# BENCH_serving.json "after" results).
#
# Usage:
#   scripts/bench_gate.sh                 # gate at the default +25%
#   THRESHOLD_PCT=10 scripts/bench_gate.sh
#
# Each benchmark runs 5 times and the gate compares the median run with
# the checked-in median, which scripts/bench.sh records over the same
# number of runs: like with like, so one lucky or unlucky run moves
# neither side. The threshold absorbs the drift between captures taken at
# different times — the gate exists to catch real hot-path regressions
# (an accidental O(n^2), a lost index), not 5% scheduler jitter. The checked-in numbers name the machine they came
# from; on a different machine, re-base them with scripts/bench.sh before
# trusting the gate.
set -uo pipefail
cd "$(dirname "$0")/.."

THRESHOLD_PCT=${THRESHOLD_PCT:-25}
BENCHTIME=${BENCHTIME:-1s}

fail=0

# fresh_ns <pkg> <bench regexp> <name> — median ns/op over 5 runs.
fresh_ns() {
    go test -run=NONE -bench "$2" -benchtime="$BENCHTIME" -count=5 "$1" |
        awk -v want="$3" '/^Benchmark/ && /ns\/op/ {
            n=$1; sub(/-[0-9]+$/, "", n)
            if (n == want) for (i = 3; i <= NF; i++) if ($i == "ns/op") print $(i-1)
        }' | sort -n | awk '{v[NR] = $1} END {
            if (NR == 0) exit
            if (NR % 2) printf "%.0f\n", v[(NR + 1) / 2]
            else printf "%.0f\n", (v[NR / 2] + v[NR / 2 + 1]) / 2
        }'
}

# gate <pkg> <bench regexp> <name> <checked-in ns/op>
gate() {
    local pkg=$1 re=$2 name=$3 base=$4 fresh allowed
    if [ -z "$base" ] || [ "$base" = "null" ]; then
        echo "SKIP $name: no checked-in baseline"
        return
    fi
    fresh=$(fresh_ns "$pkg" "$re" "$name")
    if [ -z "$fresh" ]; then
        echo "FAIL $name: benchmark produced no ns/op (renamed or broken?)"
        fail=1
        return
    fi
    allowed=$(awk -v b="$base" -v t="$THRESHOLD_PCT" 'BEGIN{printf "%.0f", b * (100 + t) / 100}')
    if awk -v f="$fresh" -v a="$allowed" 'BEGIN{exit !(f > a)}'; then
        echo "FAIL $name: $fresh ns/op vs checked-in $base (limit $allowed, +$THRESHOLD_PCT%)"
        fail=1
    else
        echo "ok   $name: $fresh ns/op vs checked-in $base (limit $allowed)"
    fi
}

mining_ns() { jq -r --arg n "$1" '.current[] | select(.name == $n) | .ns_per_op' BENCH_mining.json; }
serving_ns() { jq -r --arg n "$1" '.results[].after | select(.name == $n) | .ns_per_op' BENCH_serving.json; }

# The headline set: the windowed-delta mine of the fpgrowth.Incremental
# library, the end-to-end PAI miner (the per-mine rebuild the serving loop
# runs), and on the PAI fixture window the publish stages (rule generation,
# the largest, then the rule diff, the first publish's diff, the index
# build, and the snapshot assembly that runs the diff beside the index
# build), the cluster remerge that publishes the merged view, both indexed
# read paths, and the ingest path (a 50-event PAI POST through the handler
# into a WAL, and the NDJSON decode of that body).
gate ./internal/fpgrowth 'BenchmarkIncrementalMine/incremental$' \
    'BenchmarkIncrementalMine/incremental' "$(mining_ns BenchmarkIncrementalMine/incremental)"
gate . 'BenchmarkMinerFPGrowth$' \
    'BenchmarkMinerFPGrowth' "$(mining_ns BenchmarkMinerFPGrowth)"
gate ./internal/rules 'BenchmarkGenerateFixture$' \
    'BenchmarkGenerateFixture' "$(serving_ns BenchmarkGenerateFixture)"
gate ./internal/stream 'BenchmarkDiff$' \
    'BenchmarkDiff' "$(serving_ns BenchmarkDiff)"
gate ./internal/stream 'BenchmarkDiffFirst$' \
    'BenchmarkDiffFirst' "$(serving_ns BenchmarkDiffFirst)"
gate ./internal/server 'BenchmarkNewRuleIndex$' \
    'BenchmarkNewRuleIndex' "$(serving_ns BenchmarkNewRuleIndex)"
gate ./internal/server 'BenchmarkNewSnapshot$' \
    'BenchmarkNewSnapshot' "$(serving_ns BenchmarkNewSnapshot)"
gate ./internal/shard 'BenchmarkRemerge$' \
    'BenchmarkRemerge' "$(serving_ns BenchmarkRemerge)"
gate ./internal/server 'BenchmarkServingKeywordIndexed$' \
    'BenchmarkServingKeywordIndexed' "$(serving_ns BenchmarkServingKeywordIndexed)"
gate ./internal/server 'BenchmarkServingSortIndexed$' \
    'BenchmarkServingSortIndexed' "$(serving_ns BenchmarkServingSortIndexed)"
gate ./internal/server 'BenchmarkServeIngest$' \
    'BenchmarkServeIngest' "$(serving_ns BenchmarkServeIngest)"
gate ./internal/server 'BenchmarkDecodeNDJSON$' \
    'BenchmarkDecodeNDJSON' "$(serving_ns BenchmarkDecodeNDJSON)"

if [ "$fail" != 0 ]; then
    echo "bench gate: headline benchmark regressed beyond +$THRESHOLD_PCT% ns/op" >&2
    exit 1
fi
echo "bench gate: all headline benchmarks within +$THRESHOLD_PCT% of checked-in numbers"
