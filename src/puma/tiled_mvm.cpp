#include "puma/tiled_mvm.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <span>
#include <sstream>
#include <vector>

#include "common/check.h"
#include "common/metrics.h"
#include "common/simd.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "puma/bit_slicing.h"
#include "puma/quantize.h"

namespace nvm::puma {

namespace {

/// Volts per DAC code step: full scale over the 2^stream_bits - 1 steps.
float dac_volts_per_code(const xbar::CrossbarConfig& cfg, const HwConfig& hw) {
  return static_cast<float>(
      cfg.v_read /
      static_cast<double>((std::int64_t{1} << hw.stream_bits) - 1));
}

}  // namespace

std::int64_t HwConfig::weight_slices() const {
  return slice_count(weight_bits - 1, slice_bits);
}

std::int64_t HwConfig::input_streams() const {
  return slice_count(input_bits, stream_bits);
}

std::string HwConfig::tag() const {
  std::ostringstream os;
  os << "w" << weight_bits << "s" << slice_bits << "i" << input_bits << "t"
     << stream_bits << "a" << adc_bits << (skip_zero_tiles ? "" : "_noskip")
     << (gain_trim ? "_trim" : "") << (bn_reestimate ? "" : "_nobn");
  return os.str();
}

TiledMatrix::TiledMatrix(const Tensor& w,
                         std::shared_ptr<const xbar::MvmModel> model,
                         HwConfig hw)
    : hw_(hw), model_(std::move(model)) {
  NVM_CHECK(model_ != nullptr);
  NVM_CHECK_EQ(w.rank(), 2u);
  const auto& cfg = model_->config();
  NVM_CHECK((std::int64_t{1} << hw_.slice_bits) <= cfg.levels,
            "slice bits exceed device levels");
  // The DAC and weight chunks travel as int8 codes and the activation
  // codes as int16 (DESIGN.md §13).
  NVM_CHECK(hw_.slice_bits <= 7 && hw_.stream_bits <= 7,
            "slice and stream bits must fit int8 codes");
  NVM_CHECK(hw_.input_bits <= 15, "input bits must fit int16 codes");
  m_ = w.dim(0);
  k_ = w.dim(1);
  row_tiles_ = (k_ + cfg.rows - 1) / cfg.rows;
  col_tiles_ = (m_ + cfg.cols - 1) / cfg.cols;
  const std::int64_t slices = hw_.weight_slices();

  QuantizedWeights qw = quantize_weights(w, hw_.weight_bits);
  weight_scale_ = qw.scale;

  const float g_off = static_cast<float>(cfg.g_off());
  const float g_unit = static_cast<float>(
      (cfg.g_on() - cfg.g_off()) /
      static_cast<double>((std::int64_t{1} << hw_.slice_bits) - 1));

  // Every tile slot (row tile, col tile, polarity, slice) is programmed
  // as its own task: MvmModel::program() is safe to call concurrently, and
  // each task writes only its own slot, so the programmed state does not
  // depend on the thread count. Each task builds its full (rows x cols)
  // conductance block straight from the quantized weights: unused cells
  // stay at g_off and are cancelled by baseline subtraction (their inputs
  // are zero-padded anyway).
  const std::int64_t slots = total_tile_slots();
  tiles_.resize(static_cast<std::size_t>(slots));
  // Ideal models run fully digital when every per-tile integer dot product
  // stays below 2^24, so its float image is exact (that bound is what makes
  // the int kernels bit-identical twins of the float ones).
  const std::int64_t smax = (std::int64_t{1} << hw_.slice_bits) - 1;
  const std::int64_t tmax = (std::int64_t{1} << hw_.stream_bits) - 1;
  if (model_->is_ideal() && cfg.rows * smax * tmax < (std::int64_t{1} << 24))
    wchunks_.resize(tiles_.size());
  else
    kernels_.resize(tiles_.size());
  const float v_unit = dac_volts_per_code(cfg, hw_);
  const float* pq = qw.q.raw();  // (M x K)
  parallel_for(slots, [&](std::int64_t slot) {
    const std::int64_t s = slot % slices;
    const std::int64_t q = slot / slices;
    const bool negative = q % 2 == 1;  // polarity 1 = negative magnitudes
    const std::int64_t tj = (q / 2) % col_tiles_;
    const std::int64_t ti = (q / 2) / col_tiles_;
    const std::int64_t k0 = ti * cfg.rows;
    const std::int64_t k_used = std::min(k_, k0 + cfg.rows) - k0;
    const std::int64_t m0 = tj * cfg.cols;
    const std::int64_t m_used = std::min(m_, m0 + cfg.cols) - m0;

    std::vector<float> mag(static_cast<std::size_t>(k_used * m_used));
    for (std::int64_t kk = 0; kk < k_used; ++kk)
      for (std::int64_t mm = 0; mm < m_used; ++mm) {
        const float w = pq[(m0 + mm) * k_ + k0 + kk];
        mag[static_cast<std::size_t>(kk * m_used + mm)] =
            negative ? std::max(-w, 0.0f) : std::max(w, 0.0f);
      }
    std::vector<float> chunk(mag.size());
    const float cmax = extract_chunk_into(mag, s, hw_.slice_bits, chunk);
    if (hw_.skip_zero_tiles && cmax == 0.0f) return;

    Tensor g = Tensor::full({cfg.rows, cfg.cols}, g_off);
    float* pg = g.raw();
    for (std::int64_t kk = 0; kk < k_used; ++kk)
      for (std::int64_t mm = 0; mm < m_used; ++mm)
        pg[kk * cfg.cols + mm] =
            g_off + g_unit * chunk[static_cast<std::size_t>(kk * m_used + mm)];
    tiles_[static_cast<std::size_t>(slot)] = model_->program(g);
    // Same chunk values as the programmed conductances, kept as int8 for
    // the fully-digital int path. Other models get the tile's fused chunk
    // kernel, where it has one (input-independent per-cell tables; a
    // slot without one runs the tile's stream).
    if (!wchunks_.empty())
      wchunks_[static_cast<std::size_t>(slot)].assign(chunk.begin(),
                                                      chunk.end());
    else
      kernels_[static_cast<std::size_t>(slot)] =
          tiles_[static_cast<std::size_t>(slot)]->compile_chunk_kernel(
              v_unit, static_cast<int>(tmax));
  });
  programmed_count_ = static_cast<std::int64_t>(
      std::count_if(tiles_.begin(), tiles_.end(),
                    [](const auto& t) { return t != nullptr; }));
  static metrics::Counter& programmed =
      metrics::counter("puma/tiled/tiles_programmed");
  static metrics::Counter& fused =
      metrics::counter("puma/tiled/fused_slots");
  programmed.add(static_cast<std::uint64_t>(programmed_count_));
  fused.add(static_cast<std::uint64_t>(
      std::count_if(kernels_.begin(), kernels_.end(),
                    [](const auto& k) { return k != nullptr; })));
}

TiledMatrix::~TiledMatrix() = default;

std::int64_t TiledMatrix::total_tile_slots() const {
  return row_tiles_ * col_tiles_ * 2 * hw_.weight_slices();
}

Tensor TiledMatrix::matmul(const Tensor& x, float input_scale) const {
  NVM_TRACE_SPAN("puma/tiled/matmul");
  static metrics::Counter& m_matmuls = metrics::counter("puma/tiled/matmuls");
  m_matmuls.add();
  NVM_CHECK_EQ(x.rank(), 2u);
  NVM_CHECK_EQ(x.dim(0), k_);
  const std::int64_t n = x.dim(1);
  NVM_CHECK(x.min() >= -1e-4f, "crossbar inputs must be non-negative, got "
                                   << x.min());

  float s_x = input_scale;
  if (s_x <= 0.0f) s_x = x.max();
  Tensor result({m_, n});
  if (s_x <= 0.0f) return result;  // all-zero input

  const auto& cfg = model_->config();

  // Both routes run the integer DAC (DESIGN.md §13). kIntDigital computes
  // the whole evaluation with int8 GEMMs (ideal models only — their analog
  // step IS the exact dot product); kIntChunks keeps the analog model and
  // hands it the DAC codes (mvm_chunks_active).
  enum class Path { kIntDigital, kIntChunks };
  const Path path = wchunks_.empty() ? Path::kIntChunks : Path::kIntDigital;
  static metrics::Counter& m_int_digital =
      metrics::counter("puma/tiled/matmuls_int_digital");
  static metrics::Counter& m_int_chunks =
      metrics::counter("puma/tiled/matmuls_int_chunks");
  (path == Path::kIntDigital ? m_int_digital : m_int_chunks).add();

  const std::vector<std::int16_t> xq16 =
      quantize_activations_i16(x, s_x, hw_.input_bits);

  const std::int64_t slices = hw_.weight_slices();
  const std::int64_t streams = hw_.input_streams();
  const float v_unit = dac_volts_per_code(cfg, hw_);
  const float g_unit = static_cast<float>(
      (cfg.g_on() - cfg.g_off()) /
      static_cast<double>((std::int64_t{1} << hw_.slice_bits) - 1));
  const float g_off = static_cast<float>(cfg.g_off());
  const float i_scale = static_cast<float>(cfg.i_scale());
  const float dot_unit = v_unit * g_unit;  // amps per integer dot count
  // adc_quantize's precondition, hoisted out of the fused per-row kernel.
  NVM_CHECK(hw_.adc_bits >= 2 && hw_.adc_bits <= 16,
            "adc_bits out of range: " << hw_.adc_bits);
  NVM_CHECK_GT(i_scale, 0.0f);
  const float adc_steps =
      static_cast<float>((std::int64_t{1} << hw_.adc_bits) - 1);

  // The GEMM runs in three phases on the thread pool. Results are
  // bit-identical for any NVM_THREADS because every parallel unit owns
  // disjoint output and the cross-slot reduction happens in a fixed order.
  //
  // Phase 1 — DAC: per (row tile, stream) code blocks and g_off
  // baselines, independent across row tiles.
  struct StreamBlock {
    std::vector<std::int8_t> chunk;    // (cfg.rows, n) DAC codes
    std::vector<std::int8_t> row_max;  // per-row max code
    std::vector<float> baseline;       // per input vector, g_off*v_unit*Σc
    bool active = false;               // false: chunk all-zero, skippable
  };
  std::vector<StreamBlock> dac(
      static_cast<std::size_t>(row_tiles_ * streams));
  parallel_for(row_tiles_, [&](std::int64_t ti) {
    const std::int64_t k0 = ti * cfg.rows;
    const std::int64_t k1 = std::min(k_, k0 + cfg.rows);
    const std::int64_t k_used = k1 - k0;

    // The zero-padded integer input block lives in pooled workspace; only
    // the chunks that outlive this phase are allocated. The float baseline
    // is exact: float(integer column sum).
    simd::WorkspacePool::Lease lease = simd::shared_workspace_pool().acquire();
    simd::Workspace& ws = lease.get();
    const std::size_t cells = static_cast<std::size_t>(cfg.rows * n);
    std::span<std::int16_t> xblock = ws.i16s(0, cells);
    std::copy(xq16.begin() + static_cast<std::ptrdiff_t>(k0 * n),
              xq16.begin() + static_cast<std::ptrdiff_t>(k1 * n),
              xblock.begin());
    std::fill(xblock.begin() + static_cast<std::ptrdiff_t>(k_used * n),
              xblock.end(), std::int16_t{0});
    std::span<std::int32_t> colsum = ws.i32s(0, static_cast<std::size_t>(n));

    for (std::int64_t t = 0; t < streams; ++t) {
      StreamBlock& sb = dac[static_cast<std::size_t>(ti * streams + t)];
      sb.chunk.resize(cells);
      const int cmax = extract_chunk_i16_into(xblock, t, hw_.stream_bits,
                                              sb.chunk);
      if (hw_.skip_zero_tiles && cmax == 0) {
        sb.chunk.clear();
        sb.chunk.shrink_to_fit();
        continue;
      }
      sb.active = true;
      sb.row_max.assign(static_cast<std::size_t>(cfg.rows), 0);
      std::fill(colsum.begin(), colsum.end(), 0);
      for (std::int64_t kk = 0; kk < k_used; ++kk) {
        const std::int8_t* src = sb.chunk.data() + kk * n;
        std::int8_t rm = 0;
        for (std::int64_t nn = 0; nn < n; ++nn) {
          colsum[static_cast<std::size_t>(nn)] += src[nn];
          rm = std::max(rm, src[nn]);
        }
        sb.row_max[static_cast<std::size_t>(kk)] = rm;
      }
      sb.baseline.assign(static_cast<std::size_t>(n), 0.0f);
      for (std::int64_t nn = 0; nn < n; ++nn)
        sb.baseline[static_cast<std::size_t>(nn)] =
            static_cast<float>(colsum[static_cast<std::size_t>(nn)]) *
            (g_off * v_unit);
    }
  });

  // Phase 2 — crossbar passes: every programmed tile slot
  // (row tile, col tile, polarity, slice) is an independent task that
  // runs its active input chunks, ADC-quantizes, and shift-adds into a
  // slot-local partial sum.
  const std::int64_t slots = total_tile_slots();
  std::vector<Tensor> partial(static_cast<std::size_t>(slots));
  static metrics::Counter& m_tile_mvms =
      metrics::counter("puma/tiled/tile_mvms");
  static metrics::Counter& m_fused_runs =
      metrics::counter("puma/tiled/fused_runs");
  parallel_for(slots, [&](std::int64_t slot) {
    const std::size_t si = static_cast<std::size_t>(slot);
    xbar::ProgrammedXbar* tile = tiles_[si].get();
    if (tile == nullptr) return;
    const std::int64_t s = slot % slices;
    const std::int64_t q = slot / slices;
    const int pol = static_cast<int>(q % 2);
    const std::int64_t tj = (q / 2) % col_tiles_;
    const std::int64_t ti = (q / 2) / col_tiles_;
    const std::int64_t k_used = std::min(k_, (ti + 1) * cfg.rows) - ti * cfg.rows;
    const std::int64_t m_used = std::min(m_, (tj + 1) * cfg.cols) - tj * cfg.cols;
    const float sign = (pol == 0) ? 1.0f : -1.0f;
    const float slice_w = chunk_weight(s, hw_.slice_bits);
    simd::WorkspacePool::Lease lease = simd::shared_workspace_pool().acquire();
    simd::Workspace& ws = lease.get();
    const std::size_t outs = static_cast<std::size_t>(m_used * n);

    // Three ways to get a pass's column outputs. Fully digital: the ideal
    // tile's analog output IS the dot product, so it is computed in
    // int8/int32 and fed to the integer ADC epilogue (the model tile is
    // not consulted). Fused: the slot's compiled kernel gathers currents
    // into pooled scratch. Otherwise one stream per tile visit, so chunk
    // t+1 reuses state chunk t left behind (e.g. the circuit solver's
    // converged node voltages as a warm start).
    const xbar::FusedChunkKernel* kernel =
        kernels_.empty() ? nullptr : kernels_[si].get();
    std::unique_ptr<xbar::XbarStream> stream;
    std::span<std::int32_t> dot;
    std::span<float> cur;
    if (path == Path::kIntDigital) {
      dot = ws.i32s(1, outs);
    } else if (kernel != nullptr) {
      cur = ws.floats(3, outs);
      m_fused_runs.add();
    } else {
      stream = tile->open_stream();
    }

    Tensor acc;
    std::uint64_t passes = 0;
    for (std::int64_t t = 0; t < streams; ++t) {
      const StreamBlock& sb = dac[static_cast<std::size_t>(ti * streams + t)];
      if (!sb.active) continue;
      ++passes;
      const float shift =
          sign * chunk_weight(t, hw_.stream_bits) * slice_w / dot_unit;
      if (acc.numel() == 0) acc = Tensor({m_used, n});
      if (path == Path::kIntDigital) {
        std::fill(dot.begin(), dot.end(), 0);
        simd::gemm_at_i8_i32acc(dot.data(), wchunks_[si].data(),
                                sb.chunk.data(), m_used, n, k_used, m_used,
                                n, n);
        for (std::int64_t mm = 0; mm < m_used; ++mm)
          simd::adc_shift_add_i32(acc.raw() + mm * n, dot.data() + mm * n,
                                  sb.baseline.data(), n, dot_unit, i_scale,
                                  adc_steps, shift);
        continue;
      }
      xbar::ChunkBlock cb;
      cb.chunk = sb.chunk.data();
      cb.row_max = sb.row_max.data();
      cb.rows = cfg.rows;
      cb.n = n;
      cb.v_unit = v_unit;
      Tensor streamed;  // (cols, n)
      const float* currents = cur.data();
      if (kernel != nullptr) {
        kernel->run(cb, k_used, m_used, cur.data(), ws);
      } else {
        streamed = stream->mvm_chunks_active(cb, k_used, m_used);
        currents = streamed.raw();
      }
      for (std::int64_t mm = 0; mm < m_used; ++mm)
        simd::adc_shift_add(acc.raw() + mm * n, currents + mm * n,
                            sb.baseline.data(), n, i_scale, adc_steps, shift);
    }
    if (passes != 0) m_tile_mvms.add(passes);
    partial[si] = std::move(acc);
  });

  // Phase 3 — reduction: each output col tile owns disjoint result rows
  // and folds its slots in a fixed (row tile, polarity, slice) order.
  parallel_for(col_tiles_, [&](std::int64_t tj) {
    const std::int64_t m0 = tj * cfg.cols;
    const std::int64_t m_used = std::min(m_, m0 + cfg.cols) - m0;
    for (std::int64_t ti = 0; ti < row_tiles_; ++ti)
      for (int pol = 0; pol < 2; ++pol)
        for (std::int64_t s = 0; s < slices; ++s) {
          const std::size_t slot = static_cast<std::size_t>(
              ((ti * col_tiles_ + tj) * 2 + pol) * slices + s);
          const Tensor& acc = partial[slot];
          if (acc.numel() == 0) continue;
          for (std::int64_t mm = 0; mm < m_used; ++mm) {
            const float* src = acc.raw() + mm * n;
            float* res = result.raw() + (m0 + mm) * n;
            for (std::int64_t nn = 0; nn < n; ++nn) res[nn] += src[nn];
          }
        }
  });

  // Undo integer scaling: W ~ weight_scale * Wq, X ~ s_x * Xq / (2^ib - 1).
  const float x_unit =
      s_x / static_cast<float>((std::int64_t{1} << hw_.input_bits) - 1);
  result *= weight_scale_ * x_unit;
  return result;
}

}  // namespace nvm::puma
