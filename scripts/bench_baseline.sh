#!/usr/bin/env bash
# Benchmark baseline snapshot: run the -short bench lane once and emit
# BENCH_<date>.json — one record per benchmark with ns/op and every
# custom metric, plus a samples-to-target lane comparing the sampler
# strategies (plain vs antithetic vs stratified) at a fixed relative
# error — so the repo's performance trajectory is tracked run-over-run.
# CI executes this and uploads the JSON as an artifact; locally:
#
#   scripts/bench_baseline.sh            # writes BENCH_YYYYMMDD.json
#   scripts/bench_baseline.sh out.json   # explicit output path
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-BENCH_$(date -u +%Y%m%d).json}"
raw=$(mktemp)
bench_json=$(mktemp)
csbin=$(mktemp -d)/cs
trap 'rm -f "$raw" "$bench_json"; rm -rf "$(dirname "$csbin")"' EXIT

go test -short -run '^$' -bench . -benchtime 1x -benchmem . | tee "$raw"

awk '
BEGIN { n = 0 }
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)           # strip the GOMAXPROCS suffix
    iters = $2
    ns = ""
    metrics = ""
    for (i = 3; i < NF; i += 2) {
        val = $i; unit = $(i + 1)
        if (unit == "ns/op") { ns = val; continue }
        gsub(/"/, "", unit)
        metrics = metrics sprintf("%s\"%s\": %s", (metrics == "" ? "" : ", "), unit, val)
    }
    recs[n++] = sprintf("    {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s, \"metrics\": {%s}}",
                        name, iters, (ns == "" ? "null" : ns), metrics)
}
/^cpu:/ { cpu = $0; sub(/^cpu: */, "", cpu); print cpu > "/dev/stderr" }
END {
    printf "  \"cpu\": \"%s\",\n", cpu
    printf "  \"benchmarks\": [\n"
    for (i = 0; i < n; i++) printf "%s%s\n", recs[i], (i < n - 1 ? "," : "")
    printf "  ],\n"
}' "$raw" > "$bench_json"

# Simulator lane: the packet-level hot path's headline numbers, pulled
# from the bench run above — raw event throughput (events/sec and
# allocations per event from the self-rescheduling workload), the cost
# of one simulated second of a saturated two-pair scenario, and the
# heaviest sim-bound benchmark (the preamble-vs-energy CCA ablation).
# The tenfold-alloc-reduction and 4x wall-clock targets of the hot-path
# overhaul are tracked here run-over-run.
bench_metric() { # <bench name> <unit> -> value ("null" if absent)
    awk -v b="$1" -v u="$2" '
        $1 ~ "^"b"(-[0-9]+)?$" {
            for (i = 3; i < NF; i += 2) if ($(i + 1) == u) { print $i; exit }
        }' "$raw" | grep . || echo null
}
events_per_sec=$(bench_metric BenchmarkSimulatorEventThroughput "events/sec")
event_allocs=$(bench_metric BenchmarkSimulatorEventThroughput "allocs/op")
event_ns=$(bench_metric BenchmarkSimulatorEventThroughput "ns/op")
# events/op = events/sec × seconds/op, so the event count never needs
# hard-coding here even if the benchmark's workload size changes.
allocs_per_event=$(awk -v a="$event_allocs" -v eps="$events_per_sec" -v ns="$event_ns" \
    'BEGIN{ if (a == "null" || eps == "null" || ns == "null") print "null"; else printf "%.6f", a/(eps*ns/1e9) }')
pkt_ns=$(bench_metric BenchmarkPacketSimSecond "ns/op")
pkt_allocs=$(bench_metric BenchmarkPacketSimSecond "allocs/op")
abl_ns=$(bench_metric BenchmarkAblationPreambleVsEnergyCCA "ns/op")
echo "sim lane: $events_per_sec events/sec, $allocs_per_event allocs/event, packet-sim second ${pkt_ns}ns"
sim_json="  \"sim\": {\n"
sim_json+="    \"events_per_sec\": $events_per_sec,\n"
sim_json+="    \"allocs_per_event\": $allocs_per_event,\n"
sim_json+="    \"packet_sim_second_ns\": $pkt_ns,\n"
sim_json+="    \"packet_sim_second_allocs\": $pkt_allocs,\n"
sim_json+="    \"ablation_preamble_vs_energy_ns\": $abl_ns\n"
sim_json+="  },\n"

go build -o "$csbin" ./cmd/cs

# Distributed lane: the per-shard cost of in-process evaluation and of
# the binary frame wire at two fleet sizes, from the
# BenchmarkDistributedVsLocal sub-benchmarks above, plus the cache hit
# rate a plan-driven prefetch pass achieves (run cold: -prefetch warms
# the cache, then the real run should be all hits). The wire's remote
# tax over local is the number the streaming protocol is accountable
# for run-over-run.
local_us=$(bench_metric "BenchmarkDistributedVsLocal/local" "us/shard")
bin2_us=$(bench_metric "BenchmarkDistributedVsLocal/remote-2workers/binary" "us/shard")
bin5_us=$(bench_metric "BenchmarkDistributedVsLocal/remote-5workers/binary" "us/shard")

# Two processes on one cold cache dir: the first only prefetches (its
# own stats would mix the warming misses into the rate), the second is
# the "real run" — its hit rate is what the prefetch bought.
prefetch_dir=$(mktemp -d)
prefetch_log=$(mktemp)
"$csbin" run curves -scale smoke -seed 7 \
    -cache -cache-dir "$prefetch_dir/cache" -prefetch \
    -out "$prefetch_dir/warm" >/dev/null 2>"$prefetch_log" || true
prefetch_fetched=$(grep -o '[0-9]* fetched' "$prefetch_log" | head -1 | cut -d' ' -f1)
"$csbin" run curves -scale smoke -seed 7 \
    -cache -cache-dir "$prefetch_dir/cache" \
    -out "$prefetch_dir/run" >/dev/null 2>"$prefetch_log" || true
prefetch_hit_rate=$(awk '
    /^cache: / { hits = $2; disk = $4; misses = $7 }
    END {
        total = hits + disk + misses
        if (total > 0) printf "%.4f", (hits + disk) / total; else print "null"
    }' "$prefetch_log")
rm -rf "$prefetch_dir"; rm -f "$prefetch_log"
echo "dist lane: ${local_us}us/shard local, ${bin5_us} binary (5 workers); prefetch hit rate ${prefetch_hit_rate} (${prefetch_fetched:-0} warmed)"
dist_json="  \"dist\": {\n"
dist_json+="    \"local_us_per_shard\": $local_us,\n"
dist_json+="    \"remote_2workers_binary_us_per_shard\": $bin2_us,\n"
dist_json+="    \"remote_5workers_binary_us_per_shard\": $bin5_us,\n"
dist_json+="    \"prefetch_fetched\": ${prefetch_fetched:-null},\n"
dist_json+="    \"prefetch_hit_rate\": $prefetch_hit_rate\n"
dist_json+="  },\n"

# Samples-to-target lane: every sampler strategy drives the same
# scenarios to the same relative-error target through the adaptive
# convergence driver (`-relerr`); the sampling_spent metric in each
# run's result.json is the total Monte Carlo samples that took —
# pilots (cv's β fits, auto's candidate shoot-outs) included, so the
# ledger is honest. The variance-reduction strategies must land
# equal-accuracy results in measurably fewer samples; auto runs cold
# (no choice table), so its number carries the one-off pilot cost a
# warm repeat run skips.
target=0.005
max_samples=4194304
scale=smoke
echo "samples-to-target lane: relerr <= $target, scale $scale"

spent_for() { # scenario sampler -> sampling_spent
    local dir
    dir=$(mktemp -d)
    "$csbin" run "$1" -scale "$scale" -sampler "$2" -relerr "$target" \
        -max-samples "$max_samples" -quiet -out "$dir" >/dev/null 2>&1
    grep -ho '"sampling_spent": [0-9.e+]*' "$dir"/*/result.json | head -1 | awk '{printf "%d", $2}'
    rm -rf "$dir"
}

sampling_json="  \"sampling\": {\n"
sampling_json+="    \"target_relerr\": $target,\n"
sampling_json+="    \"max_samples\": $max_samples,\n"
sampling_json+="    \"scale\": \"$scale\",\n"
sampling_json+="    \"scenarios\": [\n"
scenarios=(curves inefficiency tables)
samplers=(antithetic stratified sobol cv auto)
for i in "${!scenarios[@]}"; do
    sc=${scenarios[$i]}
    plain=$(spent_for "$sc" plain)
    row="{\"scenario\": \"$sc\", \"plain\": $plain"
    line="  $sc: plain=$plain"
    for s in "${samplers[@]}"; do
        v=$(spent_for "$sc" "$s")
        pct=$(awk -v p="$plain" -v v="$v" 'BEGIN{printf "%.1f", 100*(1-v/p)}')
        row+=", \"$s\": $v, \"${s}_savings_pct\": $pct"
        line+=" $s=$v (-$pct%)"
    done
    row+="}"
    echo "$line"
    comma=$([ "$i" -lt $((${#scenarios[@]} - 1)) ] && echo "," || echo "")
    sampling_json+="      $row$comma\n"
done
sampling_json+="    ]\n  }\n"

# Provenance header: which tree produced these numbers. `cs bench diff`
# labels its columns with the commit, and a dirty flag warns that the
# snapshot may not be reproducible from any commit at all.
commit=$(git rev-parse HEAD 2>/dev/null || true)
dirty=false
[ -n "$(git status --porcelain 2>/dev/null)" ] && dirty=true

{
    printf '{\n'
    printf '  "date": "%s",\n' "$(date -u +%Y-%m-%dT%H:%M:%SZ)"
    printf '  "go": "%s",\n' "$(go version | awk '{print $3}')"
    printf '  "commit": "%s",\n' "$commit"
    printf '  "dirty": %s,\n' "$dirty"
    printf '  "bench": "go test -short -run ^$ -bench . -benchtime 1x -benchmem .",\n'
    cat "$bench_json"
    printf '%b' "$sim_json"
    printf '%b' "$dist_json"
    printf '%b' "$sampling_json"
    printf '}\n'
} > "$out"

echo "wrote $out ($(grep -c '"name"' "$out") benchmarks + sampler lane)"
