// Microbenchmarks (google-benchmark) for the crossbar MVM backends and
// the tiled GEMM path — the cost hierarchy that motivates using the
// GENIEx surrogate (not the circuit solver) inside DNN experiments.
//
// The *Threads benchmarks drive the same code through explicit
// nvm::ThreadPool sizes (the benchmark Arg is the pool size, overriding
// NVM_THREADS), so one run reports the scaling curve. To capture a BENCH
// trajectory file for a PR, emit machine-readable JSON:
//
//   ./build/bench/bench_mvm_perf --benchmark_out=bench_mvm_perf.json
//       --benchmark_out_format=json
//
// --metrics-out PATH additionally writes the nvm::metrics run manifest.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/telemetry.h"
#include "common/thread_pool.h"
#include "core/report.h"
#include "puma/plan.h"
#include "puma/tiled_mvm.h"
#include "tensor/ops.h"
#include "xbar/circuit_solver.h"
#include "xbar/fast_noise.h"
#include "xbar/geniex.h"
#include "xbar/model_zoo.h"

namespace {

using namespace nvm;

xbar::CrossbarConfig bench_cfg(std::int64_t n) {
  xbar::CrossbarConfig cfg = xbar::xbar_64x64_100k();
  cfg.rows = cfg.cols = n;
  return cfg;
}

Tensor bench_g(const xbar::CrossbarConfig& cfg) {
  Rng rng(1);
  return xbar::sample_conductances(cfg, rng);
}

Tensor bench_v(const xbar::CrossbarConfig& cfg) {
  Rng rng(2);
  return xbar::sample_voltages(cfg, rng);
}

void BM_IdealMvm(benchmark::State& state) {
  const auto cfg = bench_cfg(state.range(0));
  xbar::IdealXbarModel model(cfg);
  auto programmed = model.program(bench_g(cfg));
  Tensor v = bench_v(cfg);
  for (auto _ : state) benchmark::DoNotOptimize(programmed->mvm(v));
}
BENCHMARK(BM_IdealMvm)->Arg(32)->Arg(64);

void BM_FastNoiseMvm(benchmark::State& state) {
  const auto cfg = bench_cfg(state.range(0));
  xbar::FastNoiseModel model(cfg);
  auto programmed = model.program(bench_g(cfg));
  Tensor v = bench_v(cfg);
  for (auto _ : state) benchmark::DoNotOptimize(programmed->mvm(v));
}
BENCHMARK(BM_FastNoiseMvm)->Arg(32)->Arg(64);

void BM_GeniexMvm(benchmark::State& state) {
  // Uses the cached Table I surrogate for the 64x64_100k preset.
  auto model = xbar::make_geniex("64x64_100k");
  const auto& cfg = model->config();
  auto programmed = model->program(bench_g(cfg));
  Tensor v = bench_v(cfg);
  for (auto _ : state) benchmark::DoNotOptimize(programmed->mvm(v));
}
BENCHMARK(BM_GeniexMvm);

void BM_GeniexMvmBatch64(benchmark::State& state) {
  auto model = xbar::make_geniex("64x64_100k");
  const auto& cfg = model->config();
  auto programmed = model->program(bench_g(cfg));
  Rng rng(3);
  Tensor vb({cfg.rows, 64});
  for (auto& x : vb.data())
    x = static_cast<float>(rng.uniform(0, cfg.v_read));
  for (auto _ : state) benchmark::DoNotOptimize(programmed->mvm_batch(vb));
}
BENCHMARK(BM_GeniexMvmBatch64)->Unit(benchmark::kMillisecond);

void BM_GeniexMvmActive(benchmark::State& state) {
  // The active-region calls a ResNet-20 forward makes on a 64x64 GENIEx
  // tile (Args: rows_used, cols_used, n): conv GEMMs use a corner of the
  // tile (K = 27..576 rows, 16..64 output channels) over 144 / 36 / 9
  // output pixels per stage. Per-call microseconds land in the run
  // manifest as bench/geniex/active_r<rows>_c<cols>_n<n>_us.
  auto model = xbar::make_geniex("64x64_100k");
  const auto& cfg = model->config();
  auto programmed = model->program(bench_g(cfg));
  const std::int64_t rows_used = state.range(0), cols_used = state.range(1);
  const std::int64_t n = state.range(2);
  Rng rng(9);
  Tensor vb({cfg.rows, n});
  for (std::int64_t i = 0; i < rows_used; ++i)
    for (std::int64_t k = 0; k < n; ++k)
      vb.at(i, k) = rng.bernoulli(0.25)
                        ? 0.0f
                        : static_cast<float>(rng.uniform(0, cfg.v_read));
  const auto t0 = std::chrono::steady_clock::now();
  for (auto _ : state)
    benchmark::DoNotOptimize(
        programmed->mvm_multi_active(vb, rows_used, cols_used));
  const std::chrono::duration<double> dt =
      std::chrono::steady_clock::now() - t0;
  if (state.iterations() == 0) return;
  std::ostringstream name;
  name << "bench/geniex/active_r" << rows_used << "_c" << cols_used << "_n"
       << n << "_us";
  metrics::gauge(name.str())
      .set(dt.count() * 1e6 / static_cast<double>(state.iterations()));
}
BENCHMARK(BM_GeniexMvmActive)
    ->Args({27, 16, 144})
    ->Args({64, 16, 144})
    ->Args({16, 16, 144})
    ->Args({64, 32, 36})
    ->Args({32, 32, 36})
    ->Args({64, 32, 9})
    ->Args({8, 8, 9})
    ->Unit(benchmark::kMicrosecond);

Tensor bench_vblock(const xbar::CrossbarConfig& cfg, std::int64_t n) {
  Rng rng(8);
  Tensor vb({cfg.rows, n});
  for (auto& x : vb.data())
    x = rng.bernoulli(0.25) ? 0.0f : static_cast<float>(rng.uniform(0, cfg.v_read));
  return vb;
}

// Multi-RHS family: the same 64x64 fast-noise crossbar driven with a block
// of 1/8/32/128 input vectors, once through the single-vector mvm loop and
// once through the blocked mvm_multi path. Compare items_per_second between
// the two at equal block size for the batching speedup.
// Mirrors each leg's columns/sec into the metrics registry so the
// --metrics-out run manifest (the committed BENCH_mvm_perf.json) records
// the batched-vs-looped comparison alongside the warm-start numbers.
void record_cols_per_sec(const char* leg, std::int64_t block, double items,
                         double seconds) {
  if (seconds <= 0.0) return;
  std::ostringstream name;
  name << "bench/multi_rhs/" << leg << "_b" << block << "_cols_per_sec";
  metrics::gauge(name.str()).set(items / seconds);
}

void BM_FastNoiseMvmLooped(benchmark::State& state) {
  const auto cfg = bench_cfg(64);
  xbar::FastNoiseModel model(cfg);
  auto programmed = model.program(bench_g(cfg));
  const std::int64_t n = state.range(0);
  Tensor vb = bench_vblock(cfg, n);
  Tensor v({cfg.rows});
  const auto t0 = std::chrono::steady_clock::now();
  for (auto _ : state) {
    for (std::int64_t k = 0; k < n; ++k) {
      for (std::int64_t i = 0; i < cfg.rows; ++i) v[i] = vb.at(i, k);
      benchmark::DoNotOptimize(programmed->mvm(v));
    }
  }
  const std::chrono::duration<double> dt =
      std::chrono::steady_clock::now() - t0;
  state.SetItemsProcessed(state.iterations() * n);
  record_cols_per_sec("looped", n,
                      static_cast<double>(state.iterations() * n), dt.count());
}
BENCHMARK(BM_FastNoiseMvmLooped)->Arg(1)->Arg(8)->Arg(32)->Arg(128);

void BM_FastNoiseMvmMulti(benchmark::State& state) {
  const auto cfg = bench_cfg(64);
  xbar::FastNoiseModel model(cfg);
  auto programmed = model.program(bench_g(cfg));
  const std::int64_t n = state.range(0);
  Tensor vb = bench_vblock(cfg, n);
  const auto t0 = std::chrono::steady_clock::now();
  for (auto _ : state) benchmark::DoNotOptimize(programmed->mvm_multi(vb));
  const std::chrono::duration<double> dt =
      std::chrono::steady_clock::now() - t0;
  state.SetItemsProcessed(state.iterations() * n);
  record_cols_per_sec("multi", n,
                      static_cast<double>(state.iterations() * n), dt.count());
}
BENCHMARK(BM_FastNoiseMvmMulti)->Arg(1)->Arg(8)->Arg(32)->Arg(128);

void BM_IdealMvmMulti(benchmark::State& state) {
  const auto cfg = bench_cfg(64);
  xbar::IdealXbarModel model(cfg);
  auto programmed = model.program(bench_g(cfg));
  const std::int64_t n = state.range(0);
  Tensor vb = bench_vblock(cfg, n);
  // Derive sustained arithmetic throughput from the kernel layer's own
  // simd/flops counter (every gemm-family kernel self-reports 2*m*n*k)
  // rather than re-deriving shapes here; the widest block is the
  // representative number and lands in the run manifest as
  // bench/simd/gflops alongside the active tier (simd/isa).
  metrics::Counter& flops = metrics::counter("simd/flops");
  const std::uint64_t f0 = flops.value();
  const auto t0 = std::chrono::steady_clock::now();
  for (auto _ : state) benchmark::DoNotOptimize(programmed->mvm_multi(vb));
  const std::chrono::duration<double> dt =
      std::chrono::steady_clock::now() - t0;
  state.SetItemsProcessed(state.iterations() * n);
  const double gflops =
      dt.count() > 0.0
          ? static_cast<double>(flops.value() - f0) / dt.count() * 1e-9
          : 0.0;
  state.counters["gflops"] = gflops;
  if (n == 128) metrics::gauge("bench/simd/gflops").set(gflops);
}
BENCHMARK(BM_IdealMvmMulti)->Arg(1)->Arg(8)->Arg(32)->Arg(128);

void BM_CircuitSolverMvm(benchmark::State& state) {
  const auto cfg = bench_cfg(state.range(0));
  xbar::CircuitSolverModel model(cfg);
  auto programmed = model.program(bench_g(cfg));
  Tensor v = bench_v(cfg);
  for (auto _ : state) benchmark::DoNotOptimize(programmed->mvm(v));
}
BENCHMARK(BM_CircuitSolverMvm)->Arg(32)->Arg(64)->Unit(benchmark::kMillisecond);

void BM_TiledMatmul(benchmark::State& state) {
  // A stage-2 conv GEMM: (16 x 72) weights, 36 im2col columns.
  Rng rng(4);
  Tensor w = Tensor::normal({16, 72}, 0, 0.1f, rng);
  Tensor x({72, 36});
  for (auto& v : x.data())
    v = rng.bernoulli(0.5) ? 0.0f : static_cast<float>(rng.uniform(0, 1));
  std::shared_ptr<const xbar::MvmModel> model;
  if (state.range(0) == 0) {
    model = std::make_shared<xbar::IdealXbarModel>(xbar::xbar_64x64_100k());
  } else {
    model = xbar::make_geniex("64x64_100k");
  }
  puma::TiledMatrix tiled(w, model, puma::HwConfig{});
  for (auto _ : state) benchmark::DoNotOptimize(tiled.matmul(x, 1.0f));
}
BENCHMARK(BM_TiledMatmul)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_CircuitSolverBatchThreads(benchmark::State& state) {
  // One programmed crossbar, 16 independent input vectors: the default
  // mvm_batch fans columns across the pool (GENIEx sample generation and
  // validation sweeps are exactly this shape).
  const auto cfg = bench_cfg(32);
  xbar::CircuitSolverModel model(cfg);
  auto programmed = model.program(bench_g(cfg));
  Rng rng(6);
  Tensor vb({cfg.rows, 16});
  for (auto& x : vb.data())
    x = static_cast<float>(rng.uniform(0, cfg.v_read));
  ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  ThreadPool::ScopedUse use(pool);
  for (auto _ : state) benchmark::DoNotOptimize(programmed->mvm_batch(vb));
}
BENCHMARK(BM_CircuitSolverBatchThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_TiledMatmulThreads(benchmark::State& state) {
  // A wider GEMM than BM_TiledMatmul ((64 x 288) weights, 64 im2col
  // columns -> 2x9 tile grid x 2 polarities x 2 slices) so the per-slot
  // fan-out has enough independent crossbar passes to scale.
  Rng rng(7);
  Tensor w = Tensor::normal({64, 288}, 0, 0.1f, rng);
  Tensor x({288, 64});
  for (auto& v : x.data())
    v = rng.bernoulli(0.5) ? 0.0f : static_cast<float>(rng.uniform(0, 1));
  auto model =
      std::make_shared<xbar::FastNoiseModel>(xbar::xbar_64x64_100k());
  puma::TiledMatrix tiled(w, model, puma::HwConfig{});
  ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  ThreadPool::ScopedUse use(pool);
  for (auto _ : state) benchmark::DoNotOptimize(tiled.matmul(x, 1.0f));
}
BENCHMARK(BM_TiledMatmulThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Plan A/B: the serve-shaped fast-noise batched matmul ((16 x 128)
// classifier head, 32-column block) with the execution plan off (Arg 0,
// the per-call interpreter) and on (Arg 1, fused chunk kernels + pooled
// workspaces). Results are bit-identical; the time ratio is the fusion
// win. Per-arm ms land in the run manifest as
// bench/plan/tiled_matmul_{interp,plan}_ms and the ratio as
// bench/plan/tiled_matmul_speedup — the perf gate holds the ratio >= 1.2.
void BM_TiledMatmulPlan(benchmark::State& state) {
  Rng rng(10);
  Tensor w = Tensor::normal({16, 128}, 0, 0.1f, rng);
  Tensor x({128, 32});
  for (auto& v : x.data())
    v = rng.bernoulli(0.5) ? 0.0f : static_cast<float>(rng.uniform(0, 1));
  auto model =
      std::make_shared<xbar::FastNoiseModel>(xbar::xbar_32x32_100k());
  puma::TiledMatrix tiled(w, model, puma::HwConfig{});
  const bool use_plan = state.range(0) != 0;
  puma::ScopedPlanForTests gate(use_plan);
  (void)tiled.plan();  // compile outside the timed region
  const auto t0 = std::chrono::steady_clock::now();
  for (auto _ : state) benchmark::DoNotOptimize(tiled.matmul(x, 1.0f));
  const std::chrono::duration<double> dt =
      std::chrono::steady_clock::now() - t0;
  if (state.iterations() == 0) return;
  const double ms = dt.count() * 1e3 / static_cast<double>(state.iterations());
  metrics::gauge(use_plan ? "bench/plan/tiled_matmul_plan_ms"
                          : "bench/plan/tiled_matmul_interp_ms")
      .set(ms);
  if (use_plan) {
    // Arg 0 registered first, so the interpreter gauge is already set.
    const double interp =
        metrics::gauge("bench/plan/tiled_matmul_interp_ms").value();
    if (ms > 0.0 && interp > 0.0)
      metrics::gauge("bench/plan/tiled_matmul_speedup").set(interp / ms);
  }
}
BENCHMARK(BM_TiledMatmulPlan)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// Warm-start A/B: the same circuit-solver tiled matmul with stream
// warm-starting off (Arg 0, the pre-streaming behavior) and on (Arg 1).
// sweeps_per_matmul in the JSON is the acceptance number: warm-starting
// must cut total relaxation sweeps per tiled matmul by >= 20%.
void BM_SolverTiledMatmulWarmStart(benchmark::State& state) {
  Rng rng(9);
  Tensor w = Tensor::normal({16, 16}, 0, 0.1f, rng);
  Tensor x({16, 8});
  for (auto& v : x.data())
    v = rng.bernoulli(0.5) ? 0.0f : static_cast<float>(rng.uniform(0, 1));
  xbar::SolverOptions opt;
  opt.warm_start_streams = state.range(0) != 0;
  auto model = std::make_shared<xbar::CircuitSolverModel>(bench_cfg(16), opt);
  puma::TiledMatrix tiled(w, model, puma::HwConfig{});
  metrics::Counter& sweeps = metrics::counter("solver/sweeps");
  metrics::Counter& solves = metrics::counter("solver/solves");
  const std::uint64_t s0 = sweeps.value(), n0 = solves.value();
  // Streaming telemetry across the A/B: the sweep-counter trajectory per
  // benchmark iteration shows warm-starting flattening the slope.
  telemetry::track("solver/sweeps");
  std::uint64_t it = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tiled.matmul(x, 1.0f));
    telemetry::sample_all(it++);
  }
  const double iters = static_cast<double>(state.iterations());
  const double sweeps_per = static_cast<double>(sweeps.value() - s0) / iters;
  state.counters["sweeps_per_matmul"] = sweeps_per;
  state.counters["solves_per_matmul"] =
      static_cast<double>(solves.value() - n0) / iters;
  // Mirror the A/B numbers into the metrics registry so the --metrics-out
  // run manifest (the committed BENCH_mvm_perf.json) records both.
  metrics::gauge(opt.warm_start_streams
                     ? "bench/warm_start/sweeps_per_matmul_warm"
                     : "bench/warm_start/sweeps_per_matmul_cold")
      .set(sweeps_per);
}
BENCHMARK(BM_SolverTiledMatmulWarmStart)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

// Sweep-schedule A/B: the identical solve under the red-black plane
// schedule (Arg 0, the default) and the legacy chain-at-a-time schedule
// (Arg 1). Sweep counts are bit-identical by construction; the time
// difference is pure loop-nest / vectorization win, mirrored into the run
// manifest as bench/solver/ordering_{redblack,lexicographic}_ms.
void BM_CircuitSolverOrdering(benchmark::State& state) {
  const auto cfg = bench_cfg(64);
  xbar::SolverOptions opt;
  opt.ordering = state.range(0) == 0 ? xbar::SweepOrdering::kRedBlack
                                     : xbar::SweepOrdering::kLexicographic;
  xbar::CircuitSolverModel model(cfg, opt);
  auto programmed = model.program(bench_g(cfg));
  Tensor v = bench_v(cfg);
  const auto t0 = std::chrono::steady_clock::now();
  for (auto _ : state) benchmark::DoNotOptimize(programmed->mvm(v));
  const std::chrono::duration<double> dt =
      std::chrono::steady_clock::now() - t0;
  if (state.iterations() > 0)
    metrics::gauge(state.range(0) == 0
                       ? "bench/solver/ordering_redblack_ms"
                       : "bench/solver/ordering_lexicographic_ms")
        .set(dt.count() * 1e3 / static_cast<double>(state.iterations()));
}
BENCHMARK(BM_CircuitSolverOrdering)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

void BM_FloatGemmReference(benchmark::State& state) {
  Rng rng(5);
  Tensor w = Tensor::normal({16, 72}, 0, 0.1f, rng);
  Tensor x = Tensor::uniform({72, 36}, 0, 1, rng);
  for (auto _ : state) benchmark::DoNotOptimize(matmul(w, x));
}
BENCHMARK(BM_FloatGemmReference);

}  // namespace

// Expanded BENCHMARK_MAIN: peel our --metrics-out flag off argv before
// google-benchmark sees (and rejects) it, and write the run manifest after
// the benchmarks finish.
int main(int argc, char** argv) {
  std::string metrics_path;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--metrics-out") == 0 && i + 1 < argc) {
      metrics_path = argv[++i];
      continue;
    }
    args.push_back(argv[i]);
  }
  nvm::core::RunManifest manifest =
      nvm::core::RunManifest::from_env("bench_mvm_perf", metrics_path);

  int bench_argc = static_cast<int>(args.size());
  benchmark::Initialize(&bench_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, args.data()))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
