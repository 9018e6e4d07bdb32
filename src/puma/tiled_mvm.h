// Tiled, bit-sliced crossbar GEMM — the PUMA functional-simulator core.
//
// A float weight matrix W (M x K) is deployed once:
//   1. symmetric signed quantization to `weight_bits`;
//   2. differential split into non-negative (W+, W-) magnitude matrices;
//   3. bit-slicing of each magnitude into `slice_bits` chunks;
//   4. tiling over K (crossbar rows) and M (crossbar columns);
//   5. linear mapping of each slice value onto [g_off, g_on] conductances,
//      programmed through the configured crossbar MvmModel.
//
// Every subsequent matmul(X) quantizes the (non-negative) activations to
// `input_bits`, streams them `stream_bits` at a time as integer DAC
// codes, evaluates all programmed tiles, ADC-quantizes the analog column
// currents, subtracts the g_off baseline digitally, and shift-adds
// everything back into a float result approximating W * X.
//
// All crossbar evaluations flow through the injected MvmModel, so the same
// code path runs ideal, GENIEx, fast-noise, or circuit-solver crossbars.
//
// matmul() fans the programmed tile slots across nvm::ThreadPool (DAC
// precompute per row tile, one task per tile slot, fixed-order reduction
// per output col tile), so results are bit-identical for any NVM_THREADS.
// This relies on the ProgrammedXbar concurrency contract (xbar/mvm_model.h).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "xbar/mvm_model.h"

namespace nvm::puma {

struct HwConfig {
  std::int64_t weight_bits = 7;  ///< signed; magnitude = weight_bits - 1
  std::int64_t slice_bits = 3;   ///< bits per device (<= log2(cfg.levels))
  std::int64_t input_bits = 6;   ///< activation quantization
  std::int64_t stream_bits = 3;  ///< bits per DAC step
  std::int64_t adc_bits = 10;
  /// Skip crossbar passes whose programmed slice is entirely zero or whose
  /// input stream chunk is entirely zero (the PUMA compiler would not map
  /// such tiles; their ideal contribution is exactly zero).
  bool skip_zero_tiles = true;
  /// Fit a per-layer digital output gain during deployment calibration to
  /// trim the systematic component of the non-ideality (compensation in
  /// the style of the paper's refs [16], [17], [36]). The paper's own
  /// stack runs WITHOUT compensation — the uncompensated, input-dependent
  /// current loss is precisely what provides the intrinsic robustness — so
  /// this defaults to off; the ablation bench flips it.
  bool gain_trim = false;
  /// Re-estimate BatchNorm running statistics on the deployed hardware
  /// (standard deployment-time recalibration). Recovers most of the clean
  /// accuracy lost to the systematic current shift while preserving the
  /// input-dependent deviation that blunts transferred attacks.
  bool bn_reestimate = false;

  std::int64_t weight_slices() const;
  std::int64_t input_streams() const;
  /// Stable identifier for cache keys / logs.
  std::string tag() const;
};

/// A weight matrix resident on crossbar tiles.
class TiledMatrix {
 public:
  /// Programs `w` (M x K) onto tiles of `model`'s crossbar geometry.
  TiledMatrix(const Tensor& w, std::shared_ptr<const xbar::MvmModel> model,
              HwConfig hw);
  ~TiledMatrix();

  /// Approximates W * X. `x` is (K, N), elementwise >= 0. `input_scale`
  /// fixes the activation quantization range; pass <= 0 for dynamic
  /// (per-call max) scaling. Tile evaluations run on the current
  /// nvm::ThreadPool; safe to call concurrently (tiles and kernels are
  /// immutable).
  Tensor matmul(const Tensor& x, float input_scale = 0.0f) const;

  std::int64_t rows() const { return m_; }
  std::int64_t cols() const { return k_; }
  /// Number of crossbar tiles actually programmed (zero tiles skipped).
  std::int64_t programmed_tiles() const { return programmed_count_; }
  /// Total tile slots (row tiles x col tiles x 2 polarities x slices).
  std::int64_t total_tile_slots() const;

 private:
  std::int64_t m_ = 0, k_ = 0;
  std::int64_t row_tiles_ = 0, col_tiles_ = 0;
  float weight_scale_ = 1.0f;
  HwConfig hw_;
  std::shared_ptr<const xbar::MvmModel> model_;
  // tiles_[((ti * col_tiles + tj) * 2 + pol) * slices + s]; null = skipped.
  std::vector<std::unique_ptr<xbar::ProgrammedXbar>> tiles_;
  std::int64_t programmed_count_ = 0;
  /// Per-slot int8 weight chunks, stored only for ideal models whose
  /// per-tile dot counts stay below 2^24 (the fully-digital int path);
  /// same indexing and skip pattern as tiles_.
  std::vector<std::vector<std::int8_t>> wchunks_;
  /// Per-slot fused chunk kernels, compiled next to program() for
  /// non-digital models; same indexing as tiles_, null where the tile has
  /// no fused form (that slot runs the tile's stream).
  std::vector<std::unique_ptr<xbar::FusedChunkKernel>> kernels_;
};

}  // namespace nvm::puma
