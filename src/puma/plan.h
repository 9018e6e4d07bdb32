// Fused execution plans over the lazy IR (DESIGN.md §17).
//
// Two plan layers sit between capture and the crossbar:
//
//   * MvmPlan — per-TiledMatrix. Compiled once (lazily, on first matmul),
//     it linearizes the tile-slot schedule (slot decode, activity, ADC
//     shift factors precomputed per stream) and fuses the
//     quantize→DAC→tile-MVM-stream→ADC-shift-add chain: for chunk-capable
//     models each programmed tile gets a compiled FusedChunkKernel
//     (input-independent per-cell tables, see xbar/fast_noise.cpp) so the
//     per-call inner loop degenerates to a code gather. Scratch comes
//     from the shared WorkspacePool (per-plan workspace planning) instead
//     of ad-hoc thread_local buffers. Execution is bit-identical to the
//     interpreter in TiledMatrix::matmul — same phase structure, same
//     accumulation orders — which stays available as the reference
//     (NVM_PLAN=0).
//
//   * NetworkPlan — per-Network. Captures the layer walk through
//     nn::ir::capture and replays the linearized steps in Eval mode,
//     recording the shape cache on first execution. Networks that the IR
//     cannot represent fall back to the eager interpreter.
//
// Plans are compiled from the live TiledMatrix every time and never
// stored in the file cache: the schedule and its ADC shift factors cost
// less to recompute than to key on every config field they depend on.
#pragma once

#include <memory>

#include "nn/ir.h"
#include "puma/tiled_mvm.h"

namespace nvm::nn {
class Network;
}

namespace nvm::puma {

/// True when plan-based execution is enabled: NVM_PLAN env (default 1),
/// overridable per-scope in tests. With plans disabled every forward runs
/// the op-by-op interpreter.
bool plan_enabled();

/// Test-only: forces the plan gate while alive (restores on destruction).
class ScopedPlanForTests {
 public:
  explicit ScopedPlanForTests(bool enabled);
  ~ScopedPlanForTests();
  ScopedPlanForTests(const ScopedPlanForTests&) = delete;
  ScopedPlanForTests& operator=(const ScopedPlanForTests&) = delete;

 private:
  int prev_;
};

/// Compiled execution plan for one TiledMatrix. Immutable after compile;
/// execute() is safe to call concurrently (the serve scheduler and
/// cluster shards share one plan per resident model).
class MvmPlan {
 public:
  /// Compiles the plan for `tm` (slot schedule + fused kernels). Never
  /// fails: a model with no fused form still gets the linearized schedule.
  static std::unique_ptr<MvmPlan> compile(const TiledMatrix& tm);

  ~MvmPlan();

  /// Bit-identical replacement for the interpreter body of
  /// TiledMatrix::matmul.
  Tensor execute(const TiledMatrix& tm, const Tensor& x,
                 float input_scale) const;

  std::uint64_t graph_hash() const { return hash_; }
  std::int64_t fused_slots() const { return fused_count_; }

 private:
  MvmPlan() = default;

  /// One schedule entry per PROGRAMMED tile slot, with everything the
  /// interpreter re-derives per call (slot decode, tile activity bounds,
  /// per-stream ADC shift factors) precomputed.
  struct SlotStep {
    std::int64_t slot = 0;
    std::int64_t ti = 0, tj = 0, s = 0;
    int pol = 0;
    std::int64_t k_used = 0, m_used = 0;
    std::vector<float> shifts;  ///< per stream t: sign*2^(t*sb)*slice_w/du
    const xbar::FusedChunkKernel* kernel = nullptr;  ///< null: stream path
  };

  std::vector<SlotStep> steps_;
  std::vector<std::unique_ptr<xbar::FusedChunkKernel>> kernels_;
  std::uint64_t hash_ = 0;
  std::int64_t fused_count_ = 0;
};

/// Captured whole-network execution plan: the linearized Eval-mode layer
/// walk plus its IR graph and shape cache. Create through capture();
/// returns nullptr when the network is not graph-representable.
class NetworkPlan {
 public:
  static std::shared_ptr<NetworkPlan> capture(nn::Network& net);

  /// Replays the plan (Eval mode). Bit-identical to
  /// net.forward(x, Mode::Eval) by construction: the same layer objects
  /// run in the same order, so engine swaps on the layers are honored.
  Tensor forward(const Tensor& x);

  std::uint64_t graph_hash() const { return hash_; }
  const nn::ir::Graph& graph() const { return cap_.graph; }

 private:
  explicit NetworkPlan(nn::ir::Capture cap, std::uint64_t hash,
                       std::int64_t num_classes)
      : cap_(std::move(cap)), hash_(hash), num_classes_(num_classes) {}

  nn::ir::Capture cap_;
  std::uint64_t hash_ = 0;
  std::int64_t num_classes_ = 0;
  bool shapes_recorded_ = false;
};

}  // namespace nvm::puma
