#!/usr/bin/env bash
# bench_gate.sh — CI perf gate: re-run the headline benchmarks and fail if
# any regresses against the numbers checked in at the repo root
# (BENCH_mining.json "current", the BENCH_serving.json "after" results):
# more than 5% (ALLOC_PCT) in B/op or allocs/op, or more than 25%
# (THRESHOLD_PCT) in ns/op.
#
# Usage:
#   scripts/bench_gate.sh
#
# Each gated benchmark runs 5 times with -benchmem in the same go test as
# scripts/bench.sh runs it: one process per bench.sh group, with the
# group's regexp, both taken from scripts/bench_groups.sh and parsed by
# its parser. The gate compares the median run with the checked-in
# median: like with like, so one lucky or unlucky run moves neither side.
# A row timed alone reads different GC pacing than beside its group's live
# fixtures: BenchmarkDecodeNDJSON read 355-492 us alone and 279-402 us in
# its group (2 vCPU Xeon, one session), and failed the gate unchanged when
# the gate ran it alone.
#
# B/op and allocs/op are fixed by the fixture and the code, not by the
# machine's speed, so they gate tightly. Two benchmarks make sure of it:
# IncrementalMine/incremental amortizes its tree rebuilds over the ticks
# it runs, so its group runs a fixed 100, and ServeIngest times the
# mining loop's take of its events, which otherwise overlaps the POST by
# whatever the scheduler allows (per-run allocs/op read 2095-2196). Across
# three 5-run captures on a 2 vCPU Xeon VM (one scripts/bench.sh, two runs
# of this gate) no B/op or allocs/op median moved more than 0.05%.
# ALLOC_PCT=5 sits well above that spread and catches a lost buffer reuse
# or an extra copy that wall time on a shared VM cannot resolve.
#
# ns/op stays as the backstop at +25% (an accidental O(n^2), a lost
# index). On a shared 2 vCPU VM it also reads the machine: rows whose code
# did not change drifted by up to +55% between captures minutes apart, so
# an ns/op FAIL on a row whose B/op and allocs/op hold wants a re-run
# before it is believed. The checked-in numbers name the machine they came
# from; on a different machine or Go version, re-base them with
# scripts/bench.sh before trusting the gate.
set -uo pipefail
cd "$(dirname "$0")/.."

readonly THRESHOLD_PCT=25
readonly ALLOC_PCT=5

raw=$(mktemp)
cpu=$(mktemp)
trap 'rm -f "$raw" "$cpu"' EXIT
. scripts/bench_groups.sh

fail=0

# check <name> <unit> <fresh> <checked-in> <threshold %> fails the gate
# when fresh exceeds checked-in by more than the threshold.
check() {
    local name=$1 unit=$2 fresh=$3 base=$4 pct=$5 allowed
    allowed=$(awk -v b="$base" -v t="$pct" 'BEGIN{printf "%.0f", b * (100 + t) / 100}')
    if awk -v f="$fresh" -v a="$allowed" 'BEGIN{exit !(f > a)}'; then
        echo "FAIL $name: $fresh $unit vs checked-in $base (limit $allowed, +$pct%)"
        fail=1
    else
        echo "ok   $name: $fresh $unit vs checked-in $base (limit $allowed)"
    fi
}

# gate <name> <checked-in "ns B allocs", tab-separated> checks the
# fresh medians of one benchmark from the groups run below.
gate() {
    local name=$1 base_ns base_bytes base_allocs got ns bytes allocs
    IFS=$'\t' read -r base_ns base_bytes base_allocs <<<"$2"
    if [ -z "$base_ns" ] || [ "$base_ns" = "null" ]; then
        echo "SKIP $name: no checked-in baseline"
        return
    fi
    got=$(jq -r --arg n "$name" ".[] | select(.name == \$n) | $entry" <<<"$medians")
    if [ -z "$got" ]; then
        echo "FAIL $name: benchmark produced no ns/op (renamed or broken?)"
        fail=1
        return
    fi
    IFS=$'\t' read -r ns bytes allocs <<<"$got"
    check "$name" ns/op "$ns" "$base_ns" "$THRESHOLD_PCT"
    check "$name" B/op "$bytes" "$base_bytes" "$ALLOC_PCT"
    check "$name" allocs/op "$allocs" "$base_allocs" "$ALLOC_PCT"
}

entry='[.ns_per_op, .bytes_per_op, .allocs_per_op] | @tsv'
mining_entry() { jq -r --arg n "$1" ".current[] | select(.name == \$n) | $entry" BENCH_mining.json; }
serving_entry() { jq -r --arg n "$1" ".results[].after | select(.name == \$n) | $entry" BENCH_serving.json; }

# The headline set: the windowed-delta mine of the fpgrowth.Incremental
# library, the end-to-end PAI miner (the per-mine rebuild the serving loop
# runs), and on the PAI fixture window the publish stages (rule generation,
# the largest, then the rule-list diff and the itemset-keyed diff the
# publish runs, each also on a first publish, the index build, and the
# snapshot assembly that runs the diff beside the index build), the
# cluster remerge that publishes the merged view, both indexed read paths,
# a first publish's keyword drift page, the per-request keyword-list sort
# on each side of applyQuery's switch (50 rules by comparison, 986 by
# radix), and the ingest path (a 50-event PAI POST through the handler into a WAL, and the
# NDJSON decode of that body). Each runs in its bench.sh group; the groups
# with no gated row are not run.
group_incremental
group_miner
group_generate_fixture
group_diff
group_server
group_remerge
medians=$(aggregate)

gate BenchmarkIncrementalMine/incremental "$(mining_entry BenchmarkIncrementalMine/incremental)"
gate BenchmarkMinerFPGrowth "$(mining_entry BenchmarkMinerFPGrowth)"
gate BenchmarkGenerateFixture "$(serving_entry BenchmarkGenerateFixture)"
gate BenchmarkDiff "$(serving_entry BenchmarkDiff)"
gate BenchmarkDiffFirst "$(serving_entry BenchmarkDiffFirst)"
gate BenchmarkDiffViews "$(serving_entry BenchmarkDiffViews)"
gate BenchmarkDiffViewsFirst "$(serving_entry BenchmarkDiffViewsFirst)"
gate BenchmarkNewRuleIndex "$(serving_entry BenchmarkNewRuleIndex)"
gate BenchmarkNewSnapshot "$(serving_entry BenchmarkNewSnapshot)"
gate BenchmarkRemerge "$(serving_entry BenchmarkRemerge)"
gate BenchmarkServingKeywordIndexed "$(serving_entry BenchmarkServingKeywordIndexed)"
gate BenchmarkServingSortIndexed "$(serving_entry BenchmarkServingSortIndexed)"
gate BenchmarkDriftKeywordFirst "$(serving_entry BenchmarkDriftKeywordFirst)"
gate BenchmarkApplyQuerySort "$(serving_entry BenchmarkApplyQuerySort)"
gate BenchmarkApplyQuerySortRadix "$(serving_entry BenchmarkApplyQuerySortRadix)"
gate BenchmarkServeIngest "$(serving_entry BenchmarkServeIngest)"
gate BenchmarkDecodeNDJSON "$(serving_entry BenchmarkDecodeNDJSON)"

if [ "$fail" != 0 ]; then
    echo "bench gate: headline benchmark regressed beyond +$ALLOC_PCT% B/op or allocs/op, or +$THRESHOLD_PCT% ns/op" >&2
    exit 1
fi
echo "bench gate: all headline benchmarks within +$ALLOC_PCT% B/op and allocs/op and +$THRESHOLD_PCT% ns/op of checked-in numbers"
