#!/usr/bin/env bash
# Runs the fast benchmark set with --metrics-out and collects one
# BENCH_<name>.json run manifest per binary at the repo root (crossbar
# config, accuracy/NF results, health deltas, metric values, span
# timings — see DESIGN.md §10 for the schema).
#
# Only benches that finish in ~minutes are included; the figure/table
# reproduction benches (bench_fig*, bench_table3/4, ...) accept the same
# --metrics-out flag when run by hand.
#
# Usage: scripts/run_benches.sh [build-dir]   (default: build)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="${1:-build}"
if [[ ! -d "$BUILD/bench" ]]; then
  echo "error: $BUILD/bench not found — build the release preset first" >&2
  exit 1
fi

run() {
  local name="$1"
  shift
  echo "== $name =="
  "$@" --metrics-out "BENCH_${name}.json"
  echo "   -> BENCH_${name}.json"
}

run quickstart "$BUILD/examples/nvmrobust_cli" quickstart
run table1_nf "$BUILD/bench/bench_table1_nf"
run cost_model "$BUILD/bench/bench_cost_model"
# Microbenchmarks: restrict to the sub-second MVM set so the script stays
# fast; drop the filter for the full scaling curves. The filter includes
# the multi-RHS family (looped vs mvm_multi items/sec at block 1/8/32/128,
# plus bench/simd/gflops from the widest ideal block), the solver
# warm-start A/B (sweeps_per_matmul with streaming off/on), and the
# red-black vs lexicographic sweep-schedule A/B, and the unfused-vs-fused
# tile-slot A/B (bench/plan/tiled_matmul_speedup), the
# GENIEx evaluation over ResNet-20 tile shapes (bench/geniex/active_*_us,
# one row also on two concurrent threads), programming a ResNet-20's
# tiles at 1 and 2 threads (bench/tiled/program_resnet20_t*_ms), the
# digital ResNet-20 conv GEMM of each stage (bench/gemm/stage*_us) and one
# digital attack input gradient (bench/attack/input_grad_us).
run mvm_perf "$BUILD/bench/bench_mvm_perf" \
  --benchmark_filter='BM_IdealMvm|BM_FastNoiseMvm|BM_TiledMatmul/0|BM_TiledMatmulPlan|BM_SolverTiledMatmulWarmStart|BM_CircuitSolverOrdering|BM_GeniexMvmActive|BM_TiledProgram|BM_FloatGemmReference|BM_DigitalInputGrad' \
  --benchmark_min_time=0.05
# Serving layer: throughput + exact p50/p99 latency at 2 offered loads and
# saturation, max_batch 1 vs 32; exits nonzero if batching fails to beat
# batch-1 or a reply changes with batch composition.
run serve "$BUILD/bench/bench_serve"
# Sharded serving cluster: saturation vs shard count, dispatch-policy
# comparison, and an overload/shed leg; exits nonzero if routed labels
# drift across configs or the overload leg loses requests.
run serve_cluster "$BUILD/bench/bench_serve_cluster"
# Fleet lifetime: the same aging fleet under all four recalibration
# policies; exits nonzero unless threshold/budgeted beat both the never
# and always baselines on accuracy per unit recalibration energy.
run fleet "$BUILD/bench/bench_fleet_lifetime"

echo "== bench manifests =="
ls -l BENCH_*.json

# Gate the fresh numbers against the committed baselines before they are
# (re)committed: catches a regression at refresh time rather than in the
# next CI run. NVM_PERF_GATE_TOL widens the bands on noisy machines.
if command -v python3 >/dev/null 2>&1; then
  echo "== perf gate vs committed baselines =="
  GATE_DIR="$(mktemp -d /tmp/nvmrobust_benches.XXXXXX)"
  trap 'rm -rf "$GATE_DIR"' EXIT
  cp BENCH_*.json "$GATE_DIR/"
  git checkout -- BENCH_*.json 2>/dev/null || true
  python3 scripts/perf_gate.py --baseline . --candidate "$GATE_DIR" || {
    echo "perf gate FAILED — fresh manifests kept in $GATE_DIR" >&2
    trap - EXIT
    exit 1
  }
  cp "$GATE_DIR"/BENCH_*.json .
fi
