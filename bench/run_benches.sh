#!/usr/bin/env sh
# Runs the committed benches and writes their google-benchmark JSON to
# the repo root (committed so the README's before/after numbers stay
# reproducible): the Zeek-parsing microbench to BENCH_parse.json, the
# shard-state serialization bench to BENCH_state.json, the watch
# tail/checkpoint bench to BENCH_watch.json, the compact-container
# ingest bench to BENCH_compact.json, the enrichment-memoization /
# scan-strategy bench to BENCH_enrich.json, and the durable write-path
# bench to BENCH_chaos.json. Afterwards it runs the extended multi-seed
# chaos sweep (`ctest -C chaos -L chaos`), which the default ctest run
# skips.
#
#   bench/run_benches.sh [BUILD_DIR] [PARSE_OUT] [STATE_OUT] [WATCH_OUT] \
#                        [COMPACT_OUT] [ENRICH_OUT] [CHAOS_OUT]
#
# BUILD_DIR defaults to ./build; outputs to ./BENCH_parse.json,
# ./BENCH_state.json, ./BENCH_watch.json, ./BENCH_compact.json,
# ./BENCH_enrich.json, and ./BENCH_chaos.json.
# Scale the parse/compact/enrich fixtures down for a quick smoke run with
#   MTLSCOPE_PARSE_BENCH_CONN=2000000 MTLSCOPE_COMPACT_BENCH_CONN=2000000 \
#     MTLSCOPE_ENRICH_BENCH_CONN=2000000 bench/run_benches.sh
# Skip the chaos sweep (benches only) with MTLSCOPE_SKIP_CHAOS_SWEEP=1.
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir=${1:-"$repo_root/build"}
parse_out=${2:-"$repo_root/BENCH_parse.json"}
state_out=${3:-"$repo_root/BENCH_state.json"}
watch_out=${4:-"$repo_root/BENCH_watch.json"}
compact_out=${5:-"$repo_root/BENCH_compact.json"}
enrich_out=${6:-"$repo_root/BENCH_enrich.json"}
chaos_out=${7:-"$repo_root/BENCH_chaos.json"}

# run_bench BINARY OUT [REPETITIONS]: with more than one repetition the
# JSON also carries google-benchmark's mean/median/stddev/cv aggregates.
run_bench() {
  bench_bin="$build_dir/bench/$1"
  out_file=$2
  repetitions=${3:-1}
  if [ ! -x "$bench_bin" ]; then
    echo "error: $bench_bin not built (cmake --build $build_dir)" >&2
    exit 1
  fi
  "$bench_bin" \
    --benchmark_out="$out_file" \
    --benchmark_out_format=json \
    --benchmark_repetitions="$repetitions"
  echo "wrote $out_file"
}

run_bench perf_zeek_parse "$parse_out" 5
run_bench perf_state "$state_out"
run_bench perf_watch "$watch_out"
run_bench perf_compact "$compact_out"
run_bench perf_enrich "$enrich_out"
run_bench perf_chaos "$chaos_out"

# Extended chaos campaign: the default ctest run already covers the
# fixed ~26-schedule campaign (chaos_torture); the sweep re-runs it with
# extra seed-derived fault schedules behind the `chaos` label.
if [ "${MTLSCOPE_SKIP_CHAOS_SWEEP:-0}" != "1" ]; then
  (cd "$build_dir" && ctest -C chaos -L chaos --output-on-failure)
fi
