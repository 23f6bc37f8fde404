# bench_groups.sh — sourced by scripts/bench.sh and scripts/bench_gate.sh
# so both run every benchmark the same way: in one go test per group, with
# one regexp, RUNS runs and one parser. A benchmark's numbers depend on the
# process it runs in (a group's live fixtures move the GC pacing of every
# row beside them), so the gate times each gated row in the group
# bench.sh recorded it in.
#
# The caller sets raw and cpu to files; run appends to them.

BENCHTIME=${BENCHTIME:-1s}
readonly RUNS=5

# run <pkg> <bench regexp> appends one tab-separated line per benchmark run
# to $raw: package, name, GOMAXPROCS, iterations, ns/op, B/op, allocs/op.
# The CPU model go test reports goes to $cpu.
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

# aggregate folds the runs in $raw into one entry per benchmark: medians of
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

# The groups. Mining (BENCH_mining.json):

# FP-Growth engine: initial tree construction and mining across densities
# and thresholds (20k-transaction class databases).
group_fpgrowth() { run ./internal/fpgrowth 'BenchmarkBuildInitial|BenchmarkMineByDensity|BenchmarkMineByThreshold'; }
# Windowed-delta serving pattern: 20k window advancing 200 txns per tick,
# full tree rebuild per mine vs the maintained incremental tree. It runs a
# fixed 100 ticks (one window turnover): the incremental tree's rebuilds
# are amortized over the ticks, so at a b.N that followed the machine's
# speed its B/op would as well.
group_incremental() { BENCHTIME=100x run ./internal/fpgrowth 'BenchmarkIncrementalMine'; }
# Rule generation over the mined lattice.
group_generate() { run ./internal/rules 'BenchmarkGenerate$'; }
# End-to-end: 20k-job PAI trace through the miner, and the HTTP server
# ingest+mine loop.
group_miner() { run . 'BenchmarkMinerFPGrowth$|BenchmarkServerIngestMine$'; }

# Serving (BENCH_serving.json):

# Repeated /v1/rules queries against one 20k-job snapshot, the indexed
# handlers against the in-tree linear oracle. The publish step on the
# shared 5000-job PAI fixture (internal/benchfix): NewRuleIndex against its
# oracle, NewSnapshot (the diff beside the index build) against the serial
# build, plus the per-request keyword-list sort on each side of
# applyQuery's switch (50 and 986 rules). A cold keyword analysis on a
# fresh index of the fixture's second publish, for each keyword
# perfbench's query-mix sends. The ingest path on 50 generated PAI events:
# the NDJSON decode of one POST body, one WAL record encode, and the whole
# POST through the handler into a WAL until the mining loop has taken its
# events.
group_server() { run ./internal/server 'BenchmarkServing|BenchmarkNewRuleIndex|BenchmarkNewSnapshot|BenchmarkApplyQuerySort|BenchmarkKeywordAnalysisMiss|BenchmarkDecodeNDJSON|BenchmarkWALRecord|BenchmarkServeIngest$'; }
# stream.Diff against its oracle, and the first publish's diff.
group_diff() { run ./internal/stream 'BenchmarkDiff'; }
# The cluster remerge of the fixture window split over three shards,
# against the SON merge oracle.
group_remerge() { run ./internal/shard 'BenchmarkRemerge'; }
# The cold keyword analysis's pruning oracle.
group_pruning() { run ./internal/pruning 'BenchmarkKeywordAnalysisMissOracle'; }
# Rule generation from the fixture publish's frequent itemsets, against
# the Generate oracle.
group_generate_fixture() { run ./internal/rules 'BenchmarkGenerateFixture'; }
