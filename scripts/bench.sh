#!/usr/bin/env bash
# Run the pinned perf benches through bench/perf_gate and maintain the
# repo's perf trajectory file (BENCH_PR5.json).
#
#   scripts/bench.sh                  # run pinned set, merge as 'post',
#                                     # then compare against 'baseline'
#   scripts/bench.sh --tag baseline   # (re)record the baseline entries
#   scripts/bench.sh --compare        # compare only, no re-run
#   scripts/bench.sh --summary        # markdown table for README
#   scripts/bench.sh --jobs N         # worker threads for the
#                                     # sweep-capable benches (a10, a11,
#                                     # m2); default = each bench's own
#                                     # resolution (XMEM_JOBS, then host
#                                     # cores). Results are byte-identical
#                                     # at any value — this only moves
#                                     # wall-clock.
#
# Environment: BUILD_DIR (default: build), BENCH_FILE (default:
# BENCH_PR5.json), BENCH_TOLERANCE (default 0.10), BENCH_FAIL_FACTOR
# (default 2.0).
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD=${BUILD_DIR:-build}
FILE=${BENCH_FILE:-BENCH_PR5.json}
TOLERANCE=${BENCH_TOLERANCE:-0.10}
FAIL_FACTOR=${BENCH_FAIL_FACTOR:-2.0}
GATE="$BUILD/bench/perf_gate"
# The m1 subset pinned by the perf gate: event-engine and packet hot
# paths, and the CRC-32 / ICRC rows (a host where net::crc32 falls back
# to the table path reads ~5x slower there and fails the gate).
M1_FILTER='EventQueueScheduleFire|EventQueueCancelChurn|PacketClone|PacketCloneTruncate64|BM_ParsePacket|BM_Crc32|BM_ComputeIcrc'

mode=run
tag=post
jobs=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --summary) mode=summary ;;
    --compare) mode=compare ;;
    --tag) tag=$2; shift ;;
    --file) FILE=$2; shift ;;
    --jobs) jobs=$2; shift ;;
    *) echo "bench.sh: unknown argument '$1'" >&2; exit 2 ;;
  esac
  shift
done
# Sweep-capable benches get the worker knob as bench argv (empty = let
# the bench resolve XMEM_JOBS / host cores itself).
sweep_args=()
if [[ -n "$jobs" ]]; then
  sweep_args=(--jobs "$jobs")
fi

if [[ $mode == summary ]]; then
  exec "$GATE" summary --file "$FILE"
fi
if [[ $mode == compare ]]; then
  exec "$GATE" compare --file "$FILE" --tolerance "$TOLERANCE" \
    --fail-factor "$FAIL_FACTOR"
fi

cmake --build "$BUILD" -j --target perf_gate m1_micro \
  t1_packet_buffer_throughput fig3b_statestore_bw a7_shard_scale \
  f1c_telemetry a10_cache_zipf a11_cc_matrix m2_parallel_scale >/dev/null

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

"$GATE" run --bin "$BUILD/bench/m1_micro" --label m1_micro \
  --out "$tmp/m1_micro.json" -- --benchmark_filter="$M1_FILTER"
"$GATE" run --bin "$BUILD/bench/t1_packet_buffer_throughput" --label t1 \
  --out "$tmp/t1.json"
"$GATE" run --bin "$BUILD/bench/fig3b_statestore_bw" --label fig3b \
  --out "$tmp/fig3b.json"
"$GATE" run --bin "$BUILD/bench/a7_shard_scale" --label a7 \
  --out "$tmp/a7.json"
# f1c pins the observability plane: absolute events/s with telemetry off
# and on, plus int_overhead_pct (lower-is-better, floored at 1% inside
# the bench so the fail factor bounds it at 2% absolute).
"$GATE" run --bin "$BUILD/bench/f1c_telemetry" --label f1c \
  --out "$tmp/f1c.json"
# a10 pins the lookup-cache claim: >= 10x p50 at alpha=0.99 with a 1%
# cache (pinned p50s are "us" lower-is-better; hit rates/speedup are
# "ratio"/"x" higher-is-better — both directions guarded).
"$GATE" run --bin "$BUILD/bench/a10_cache_zipf" --label a10 \
  --out "$tmp/a10.json" ${sweep_args[@]+-- "${sweep_args[@]}"}
# a11 pins the congestion-control claim: DCQCN+PFC recovers >= 2x tenant
# goodput under the 16:1 incast versus no CC (cc_recovery_x is "x"
# higher-is-better; per-cell goodputs are Gbps higher-is-better, op p99s
# are "us" lower-is-better — the gate guards both directions).
"$GATE" run --bin "$BUILD/bench/a11_cc_matrix" --label a11 \
  --out "$tmp/a11.json" ${sweep_args[@]+-- "${sweep_args[@]}"}
# m2 pins the parallel sweep engine: aggregate events/s at 8 workers vs
# serial ("events/s" and the speedup "x" are higher-is-better). The
# numbers are host-core-dependent; the bench's "sweep" header records
# jobs + host_cores so cross-machine comparisons stay honest, and gate
# improvements (a bigger host) never fail.
"$GATE" run --bin "$BUILD/bench/m2_parallel_scale" --label m2 \
  --out "$tmp/m2.json" ${sweep_args[@]+-- "${sweep_args[@]}"}

"$GATE" merge --out "$FILE" --tag "$tag" \
  "$tmp/m1_micro.json" "$tmp/t1.json" "$tmp/fig3b.json" "$tmp/a7.json" \
  "$tmp/f1c.json" "$tmp/a10.json" "$tmp/a11.json" "$tmp/m2.json"

if [[ $tag == post ]]; then
  "$GATE" compare --file "$FILE" --tolerance "$TOLERANCE" \
    --fail-factor "$FAIL_FACTOR"
fi
