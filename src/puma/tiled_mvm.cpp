#include "puma/tiled_mvm.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <span>
#include <sstream>
#include <vector>

#include "common/check.h"
#include "common/env.h"
#include "common/metrics.h"
#include "common/simd.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "puma/bit_slicing.h"
#include "puma/plan.h"
#include "puma/quantize.h"

namespace nvm::puma {

namespace {

/// -1 = no test override; 0/1 force the gate.
std::atomic<int>& int_path_override() {
  static std::atomic<int> v{-1};
  return v;
}

}  // namespace

bool int_path_enabled() {
  const int o = int_path_override().load(std::memory_order_relaxed);
  if (o >= 0) return o != 0;
  static const bool enabled = env_int("NVM_INT_PATH", 1) != 0;
  return enabled;
}

ScopedIntPathForTests::ScopedIntPathForTests(bool enabled)
    : prev_(int_path_override().exchange(enabled ? 1 : 0)) {}

ScopedIntPathForTests::~ScopedIntPathForTests() {
  int_path_override().store(prev_);
}

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

  // Integer bit-slice path eligibility (DESIGN.md §13): chunk values must
  // fit int8 (weight slices and DAC codes), activation codes must fit
  // int16, and every per-tile integer dot product must stay below 2^24 so
  // its float image is exact (that bound is what makes the int kernels
  // bit-identical twins of the float ones).
  {
    const std::int64_t smax = (std::int64_t{1} << hw_.slice_bits) - 1;
    const std::int64_t tmax = (std::int64_t{1} << hw_.stream_bits) - 1;
    int_gates_ok_ = hw_.slice_bits <= 7 && hw_.stream_bits <= 7 &&
                    hw_.input_bits <= 15 &&
                    cfg.rows * smax * tmax < (std::int64_t{1} << 24);
  }

  // Every tile slot (row tile, col tile, polarity, slice) is programmed
  // as its own task: MvmModel::program() is safe to call concurrently, and
  // each task writes only its own slot, so the programmed state does not
  // depend on the thread count. Each task builds its full (rows x cols)
  // conductance block straight from the quantized weights: unused cells
  // stay at g_off and are cancelled by baseline subtraction (their inputs
  // are zero-padded anyway).
  const std::int64_t slots = total_tile_slots();
  tiles_.resize(static_cast<std::size_t>(slots));
  if (int_gates_ok_ && model_->is_ideal()) wchunks_.resize(tiles_.size());
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
    // the fully-digital int path.
    if (!wchunks_.empty())
      wchunks_[static_cast<std::size_t>(slot)].assign(chunk.begin(),
                                                      chunk.end());
  });
  programmed_count_ = static_cast<std::int64_t>(
      std::count_if(tiles_.begin(), tiles_.end(),
                    [](const auto& t) { return t != nullptr; }));
  static metrics::Counter& programmed =
      metrics::counter("puma/tiled/tiles_programmed");
  programmed.add(static_cast<std::uint64_t>(programmed_count_));
}

TiledMatrix::~TiledMatrix() = default;

std::int64_t TiledMatrix::total_tile_slots() const {
  return row_tiles_ * col_tiles_ * 2 * hw_.weight_slices();
}

const MvmPlan* TiledMatrix::plan() const {
  std::call_once(plan_once_, [&] { plan_ = MvmPlan::compile(*this); });
  return plan_.get();
}

Tensor TiledMatrix::matmul(const Tensor& x, float input_scale) const {
  // Plan route (DESIGN.md §17): compile once, then run the fused schedule.
  // NVM_PLAN=0 restores the interpreter below, the bit-identity reference.
  if (plan_enabled()) {
    if (const MvmPlan* p = plan(); p != nullptr)
      return p->execute(*this, x, input_scale);
  }
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

  // Route through the integer bit-slice pipeline when eligible
  // (DESIGN.md §13): kIntDigital computes the whole evaluation with int8
  // GEMMs (ideal models only — their analog step IS the exact dot
  // product); kIntChunks keeps the analog model but hands it integer DAC
  // codes instead of materialized voltages (bit-identical by the
  // mvm_chunks_active contract). kLegacy is the original float pipeline
  // (NVM_INT_PATH=0 escape hatch).
  enum class Path { kLegacy, kIntDigital, kIntChunks };
  Path path = Path::kLegacy;
  if (int_gates_ok_ && int_path_enabled()) {
    if (!wchunks_.empty())
      path = Path::kIntDigital;
    else if (model_->supports_chunk_mvm())
      path = Path::kIntChunks;
  }
  static metrics::Counter& m_int_digital =
      metrics::counter("puma/tiled/matmuls_int_digital");
  static metrics::Counter& m_int_chunks =
      metrics::counter("puma/tiled/matmuls_int_chunks");
  if (path == Path::kIntDigital) m_int_digital.add();
  if (path == Path::kIntChunks) m_int_chunks.add();

  Tensor xq;                       // legacy float activation codes
  std::vector<std::int16_t> xq16;  // int-path activation codes
  if (path == Path::kLegacy)
    xq = quantize_activations(x, s_x, hw_.input_bits);
  else
    xq16 = quantize_activations_i16(x, s_x, hw_.input_bits);

  const std::int64_t slices = hw_.weight_slices();
  const std::int64_t streams = hw_.input_streams();
  const float v_unit = static_cast<float>(
      cfg.v_read / static_cast<double>((std::int64_t{1} << hw_.stream_bits) - 1));
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
  // Phase 1 — DAC: per (row tile, stream) voltage blocks and g_off
  // baselines, independent across row tiles.
  struct StreamBlock {
    Tensor volts;                      // legacy path: (cfg.rows, n) volts
    std::vector<std::int8_t> chunk;    // int paths: (cfg.rows, n) DAC codes
    std::vector<std::int8_t> row_max;  // int paths: per-row max code
    std::vector<float> baseline;       // per input vector, g_off*v_unit*Σc
    bool active = false;               // false: chunk all-zero, skippable
  };
  std::vector<StreamBlock> dac(
      static_cast<std::size_t>(row_tiles_ * streams));
  parallel_for(row_tiles_, [&](std::int64_t ti) {
    const std::int64_t k0 = ti * cfg.rows;
    const std::int64_t k1 = std::min(k_, k0 + cfg.rows);
    const std::int64_t k_used = k1 - k0;

    // Zero-padded integer input block and chunk scratch live in reused
    // per-thread workspace; only buffers that outlive this phase
    // (sb.volts / sb.chunk) are allocated.
    thread_local simd::Workspace ws;
    const std::size_t cells = static_cast<std::size_t>(cfg.rows * n);

    if (path == Path::kLegacy) {
      std::span<float> xblock = ws.floats(0, cells);
      std::span<float> chunk = ws.floats(1, cells);
      for (std::int64_t kk = 0; kk < k_used; ++kk) {
        const float* src = xq.raw() + (k0 + kk) * n;
        std::copy(src, src + n, xblock.data() + kk * n);
      }
      std::fill(xblock.begin() + static_cast<std::ptrdiff_t>(k_used * n),
                xblock.end(), 0.0f);

      for (std::int64_t t = 0; t < streams; ++t) {
        const float cmax =
            extract_chunk_into(xblock, t, hw_.stream_bits, chunk);
        if (hw_.skip_zero_tiles && cmax == 0.0f) continue;
        StreamBlock& sb = dac[static_cast<std::size_t>(ti * streams + t)];
        sb.active = true;
        sb.baseline.assign(static_cast<std::size_t>(n), 0.0f);
        for (std::int64_t kk = 0; kk < k_used; ++kk) {
          const float* src = chunk.data() + kk * n;
          for (std::int64_t nn = 0; nn < n; ++nn)
            sb.baseline[static_cast<std::size_t>(nn)] += src[nn];
        }
        for (std::int64_t nn = 0; nn < n; ++nn)
          sb.baseline[static_cast<std::size_t>(nn)] *= g_off * v_unit;
        sb.volts = Tensor({cfg.rows, n});  // integer chunk -> DAC voltages
        simd::scale(sb.volts.raw(), chunk.data(), v_unit,
                    static_cast<std::int64_t>(cells));
      }
      return;
    }

    // Int paths: codes stay integer end-to-end. The float baseline is
    // bit-identical to the legacy one — a float sum of small non-negative
    // integers is exact, so it equals float(integer column sum).
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
  // streams its input chunks, ADC-quantizes, and shift-adds into a
  // slot-local partial sum.
  const std::int64_t slots = total_tile_slots();
  std::vector<Tensor> partial(static_cast<std::size_t>(slots));
  static metrics::Counter& m_tile_mvms =
      metrics::counter("puma/tiled/tile_mvms");
  parallel_for(slots, [&](std::int64_t slot) {
    xbar::ProgrammedXbar* tile = tiles_[static_cast<std::size_t>(slot)].get();
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

    Tensor acc;
    std::uint64_t passes = 0;

    if (path == Path::kIntDigital) {
      // Fully digital: the ideal tile's analog output IS the dot product,
      // so compute it in int8/int32 and feed the integer ADC epilogue. The
      // model tiles are not consulted (NVM_INT_PATH=0 restores them).
      const std::vector<std::int8_t>& w8 =
          wchunks_[static_cast<std::size_t>(slot)];
      thread_local simd::Workspace ws;
      std::span<std::int32_t> dot =
          ws.i32s(1, static_cast<std::size_t>(m_used * n));
      for (std::int64_t t = 0; t < streams; ++t) {
        const StreamBlock& sb =
            dac[static_cast<std::size_t>(ti * streams + t)];
        if (!sb.active) continue;
        ++passes;
        std::fill(dot.begin(), dot.end(), 0);
        simd::gemm_at_i8_i32acc(dot.data(), w8.data(), sb.chunk.data(),
                                m_used, n, k_used, m_used, n, n);
        const float shift =
            sign * chunk_weight(t, hw_.stream_bits) * slice_w / dot_unit;
        if (acc.numel() == 0) acc = Tensor({m_used, n});
        for (std::int64_t mm = 0; mm < m_used; ++mm)
          simd::adc_shift_add_i32(acc.raw() + mm * n, dot.data() + mm * n,
                                  sb.baseline.data(), n, dot_unit, i_scale,
                                  adc_steps, shift);
      }
    } else {
      // One stream per tile visit: chunk t+1 reuses state chunk t left
      // behind (e.g. the circuit solver's converged node voltages as a
      // warm start).
      std::unique_ptr<xbar::XbarStream> stream = tile->open_stream();
      for (std::int64_t t = 0; t < streams; ++t) {
        const StreamBlock& sb =
            dac[static_cast<std::size_t>(ti * streams + t)];
        if (!sb.active) continue;
        ++passes;
        Tensor currents;  // (cols, n)
        if (path == Path::kIntChunks) {
          xbar::ChunkBlock cb;
          cb.chunk = sb.chunk.data();
          cb.row_max = sb.row_max.data();
          cb.rows = cfg.rows;
          cb.n = n;
          cb.v_unit = v_unit;
          currents = stream->mvm_chunks_active(cb, k_used, m_used);
        } else {
          currents = stream->mvm_multi_active(sb.volts, k_used, m_used);
        }
        const float shift =
            sign * chunk_weight(t, hw_.stream_bits) * slice_w / dot_unit;
        if (acc.numel() == 0) acc = Tensor({m_used, n});
        for (std::int64_t mm = 0; mm < m_used; ++mm)
          simd::adc_shift_add(acc.raw() + mm * n, currents.raw() + mm * n,
                              sb.baseline.data(), n, i_scale, adc_steps,
                              shift);
      }
    }
    if (passes != 0) m_tile_mvms.add(passes);
    partial[static_cast<std::size_t>(slot)] = std::move(acc);
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
