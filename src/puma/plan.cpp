#include "puma/plan.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <string>

#include "common/check.h"
#include "common/env.h"
#include "common/serialize.h"
#include "common/metrics.h"
#include "common/simd.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "nn/network.h"
#include "puma/bit_slicing.h"
#include "puma/quantize.h"

namespace nvm::puma {

namespace {

/// -1 = no test override; 0/1 force the gate.
std::atomic<int>& plan_override() {
  static std::atomic<int> v{-1};
  return v;
}

}  // namespace

bool plan_enabled() {
  const int o = plan_override().load(std::memory_order_relaxed);
  if (o >= 0) return o != 0;
  static const bool enabled = env_int("NVM_PLAN", 1) != 0;
  return enabled;
}

ScopedPlanForTests::ScopedPlanForTests(bool enabled)
    : prev_(plan_override().exchange(enabled ? 1 : 0)) {}

ScopedPlanForTests::~ScopedPlanForTests() { plan_override().store(prev_); }

MvmPlan::~MvmPlan() = default;

std::unique_ptr<MvmPlan> MvmPlan::compile(const TiledMatrix& tm) {
  NVM_TRACE_SPAN("puma/plan/compile");
  static metrics::Counter& m_builds = metrics::counter("plan/builds");
  static metrics::Counter& m_fused = metrics::counter("plan/fused_slots");
  m_builds.add();

  const auto& cfg = tm.model_->config();
  const std::int64_t slices = tm.hw_.weight_slices();
  const std::int64_t streams = tm.hw_.input_streams();
  const float v_unit = static_cast<float>(
      cfg.v_read /
      static_cast<double>((std::int64_t{1} << tm.hw_.stream_bits) - 1));
  const float g_unit = static_cast<float>(
      (cfg.g_on() - cfg.g_off()) /
      static_cast<double>((std::int64_t{1} << tm.hw_.slice_bits) - 1));
  const float dot_unit = v_unit * g_unit;

  std::unique_ptr<MvmPlan> plan(new MvmPlan());

  // Lower the pipeline into the shared IR: the graph is both the plan's
  // identity (graph_hash) and a diagnostic artifact. Hash-consing collapses structurally identical tile slots.
  nn::ir::Graph graph;
  const std::int64_t in =
      graph.intern(nn::ir::Op::kInput, {}, {tm.k_}, "x");
  const std::int64_t q = graph.intern(
      nn::ir::Op::kQuantize, {in}, {tm.hw_.input_bits}, "quantize");
  const std::int64_t dac = graph.intern(
      nn::ir::Op::kDac, {q}, {tm.hw_.stream_bits, tm.row_tiles_, streams},
      "dac");
  std::vector<std::int64_t> slot_nodes;

  const std::int64_t slots = tm.total_tile_slots();
  for (std::int64_t slot = 0; slot < slots; ++slot) {
    if (tm.tiles_[static_cast<std::size_t>(slot)] == nullptr) continue;
    SlotStep step;
    step.slot = slot;
    step.s = slot % slices;
    const std::int64_t qd = slot / slices;
    step.pol = static_cast<int>(qd % 2);
    step.tj = (qd / 2) % tm.col_tiles_;
    step.ti = (qd / 2) / tm.col_tiles_;
    step.k_used =
        std::min(tm.k_, (step.ti + 1) * cfg.rows) - step.ti * cfg.rows;
    step.m_used =
        std::min(tm.m_, (step.tj + 1) * cfg.cols) - step.tj * cfg.cols;
    const float sign = (step.pol == 0) ? 1.0f : -1.0f;
    const float slice_w = chunk_weight(step.s, tm.hw_.slice_bits);
    step.shifts.resize(static_cast<std::size_t>(streams));
    for (std::int64_t t = 0; t < streams; ++t)
      // Exactly the interpreter's expression (left-associated), hoisted
      // out of the per-call slot loop.
      step.shifts[static_cast<std::size_t>(t)] =
          sign * chunk_weight(t, tm.hw_.stream_bits) * slice_w / dot_unit;
    plan->steps_.push_back(std::move(step));
    slot_nodes.push_back(graph.intern(
        nn::ir::Op::kTileMvm, {dac},
        {slot, plan->steps_.back().k_used, plan->steps_.back().m_used},
        "tile_mvm/" + std::to_string(slot)));
  }
  std::vector<std::int64_t> adc_inputs = std::move(slot_nodes);
  const std::int64_t adc = graph.intern(
      nn::ir::Op::kAdcShiftAdd, std::move(adc_inputs), {tm.hw_.adc_bits},
      "adc_shift_add");
  graph.intern(nn::ir::Op::kOutput, {adc}, {tm.m_}, "y");

  // Seed the graph hash with everything structural that the node attrs do
  // not carry: hw tag, model identity, crossbar geometry.
  std::uint64_t seed = 0x4d766d506c616eull;  // "MvmPlan"
  const std::string id = tm.hw_.tag() + "|" + tm.model_->name() + "|" +
                         std::to_string(cfg.rows) + "x" +
                         std::to_string(cfg.cols);
  seed = crc32(id.data(), id.size(), static_cast<std::uint32_t>(seed));
  plan->hash_ = graph.graph_hash(seed);

  // Fuse: compile per-tile chunk kernels where the model offers them and
  // the integer chunk path is even reachable (bit-width gates; the ideal
  // digital path outranks chunks and never consults the tiles).
  if (tm.int_gates_ok_ && tm.wchunks_.empty() &&
      tm.model_->supports_chunk_mvm()) {
    const int max_code =
        static_cast<int>((std::int64_t{1} << tm.hw_.stream_bits) - 1);
    for (SlotStep& step : plan->steps_) {
      std::unique_ptr<xbar::FusedChunkKernel> kernel =
          tm.tiles_[static_cast<std::size_t>(step.slot)]
              ->compile_chunk_kernel(v_unit, max_code);
      if (kernel == nullptr) continue;
      step.kernel = kernel.get();
      plan->kernels_.push_back(std::move(kernel));
      ++plan->fused_count_;
    }
  }
  if (plan->fused_count_ > 0)
    m_fused.add(static_cast<std::uint64_t>(plan->fused_count_));
  return plan;
}

Tensor MvmPlan::execute(const TiledMatrix& tm, const Tensor& x,
                        float input_scale) const {
  // Same span name as the interpreter (tooling keyed on puma/tiled/matmul
  // sees both paths), with the plan span nested inside it.
  NVM_TRACE_SPAN("puma/tiled/matmul");
  NVM_TRACE_SPAN("puma/plan/execute");
  static metrics::Counter& m_matmuls = metrics::counter("puma/tiled/matmuls");
  static metrics::Counter& m_executes = metrics::counter("plan/executes");
  static metrics::Counter& m_fused_runs = metrics::counter("plan/fused_runs");
  m_matmuls.add();
  m_executes.add();
  NVM_CHECK_EQ(x.rank(), 2u);
  NVM_CHECK_EQ(x.dim(0), tm.k_);
  const std::int64_t n = x.dim(1);
  NVM_CHECK(x.min() >= -1e-4f, "crossbar inputs must be non-negative, got "
                                   << x.min());

  float s_x = input_scale;
  if (s_x <= 0.0f) s_x = x.max();
  Tensor result({tm.m_, n});
  if (s_x <= 0.0f) return result;  // all-zero input

  const auto& cfg = tm.model_->config();

  // Path selection matches the interpreter call-for-call (the int-path
  // gate is re-read per execution so ScopedIntPathForTests behaves
  // identically under plans).
  enum class Path { kLegacy, kIntDigital, kIntChunks };
  Path path = Path::kLegacy;
  if (tm.int_gates_ok_ && int_path_enabled()) {
    if (!tm.wchunks_.empty())
      path = Path::kIntDigital;
    else if (tm.model_->supports_chunk_mvm())
      path = Path::kIntChunks;
  }
  static metrics::Counter& m_int_digital =
      metrics::counter("puma/tiled/matmuls_int_digital");
  static metrics::Counter& m_int_chunks =
      metrics::counter("puma/tiled/matmuls_int_chunks");
  if (path == Path::kIntDigital) m_int_digital.add();
  if (path == Path::kIntChunks) m_int_chunks.add();

  Tensor xq;
  std::vector<std::int16_t> xq16;
  if (path == Path::kLegacy)
    xq = quantize_activations(x, s_x, tm.hw_.input_bits);
  else
    xq16 = quantize_activations_i16(x, s_x, tm.hw_.input_bits);

  const std::int64_t streams = tm.hw_.input_streams();
  const float v_unit = static_cast<float>(
      cfg.v_read /
      static_cast<double>((std::int64_t{1} << tm.hw_.stream_bits) - 1));
  const float g_unit = static_cast<float>(
      (cfg.g_on() - cfg.g_off()) /
      static_cast<double>((std::int64_t{1} << tm.hw_.slice_bits) - 1));
  const float g_off = static_cast<float>(cfg.g_off());
  const float i_scale = static_cast<float>(cfg.i_scale());
  const float dot_unit = v_unit * g_unit;
  NVM_CHECK(tm.hw_.adc_bits >= 2 && tm.hw_.adc_bits <= 16,
            "adc_bits out of range: " << tm.hw_.adc_bits);
  NVM_CHECK_GT(i_scale, 0.0f);
  const float adc_steps =
      static_cast<float>((std::int64_t{1} << tm.hw_.adc_bits) - 1);

  // Phase 1 — DAC (identical math to the interpreter; scratch comes from
  // the shared workspace pool instead of thread_local buffers).
  struct StreamBlock {
    Tensor volts;
    std::vector<std::int8_t> chunk;
    std::vector<std::int8_t> row_max;
    std::vector<float> baseline;
    bool active = false;
  };
  std::vector<StreamBlock> dacb(
      static_cast<std::size_t>(tm.row_tiles_ * streams));
  parallel_for(tm.row_tiles_, [&](std::int64_t ti) {
    const std::int64_t k0 = ti * cfg.rows;
    const std::int64_t k1 = std::min(tm.k_, k0 + cfg.rows);
    const std::int64_t k_used = k1 - k0;
    simd::WorkspacePool::Lease lease = simd::shared_workspace_pool().acquire();
    simd::Workspace& ws = lease.get();
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
            extract_chunk_into(xblock, t, tm.hw_.stream_bits, chunk);
        if (tm.hw_.skip_zero_tiles && cmax == 0.0f) continue;
        StreamBlock& sb = dacb[static_cast<std::size_t>(ti * streams + t)];
        sb.active = true;
        sb.baseline.assign(static_cast<std::size_t>(n), 0.0f);
        for (std::int64_t kk = 0; kk < k_used; ++kk) {
          const float* src = chunk.data() + kk * n;
          for (std::int64_t nn = 0; nn < n; ++nn)
            sb.baseline[static_cast<std::size_t>(nn)] += src[nn];
        }
        for (std::int64_t nn = 0; nn < n; ++nn)
          sb.baseline[static_cast<std::size_t>(nn)] *= g_off * v_unit;
        sb.volts = Tensor({cfg.rows, n});
        simd::scale(sb.volts.raw(), chunk.data(), v_unit,
                    static_cast<std::int64_t>(cells));
      }
      return;
    }

    std::span<std::int16_t> xblock = ws.i16s(0, cells);
    std::copy(xq16.begin() + static_cast<std::ptrdiff_t>(k0 * n),
              xq16.begin() + static_cast<std::ptrdiff_t>(k1 * n),
              xblock.begin());
    std::fill(xblock.begin() + static_cast<std::ptrdiff_t>(k_used * n),
              xblock.end(), std::int16_t{0});
    std::span<std::int32_t> colsum = ws.i32s(0, static_cast<std::size_t>(n));
    for (std::int64_t t = 0; t < streams; ++t) {
      StreamBlock& sb = dacb[static_cast<std::size_t>(ti * streams + t)];
      sb.chunk.resize(cells);
      const int cmax =
          extract_chunk_i16_into(xblock, t, tm.hw_.stream_bits, sb.chunk);
      if (tm.hw_.skip_zero_tiles && cmax == 0) {
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

  // Phase 2 — crossbar passes over the precompiled slot schedule. Slots
  // with a fused kernel skip stream/tensor setup entirely: the kernel
  // gathers currents straight into pooled scratch.
  const std::int64_t slots = tm.total_tile_slots();
  std::vector<Tensor> partial(static_cast<std::size_t>(slots));
  static metrics::Counter& m_tile_mvms =
      metrics::counter("puma/tiled/tile_mvms");
  parallel_for(static_cast<std::int64_t>(steps_.size()),
               [&](std::int64_t si) {
    const SlotStep& step = steps_[static_cast<std::size_t>(si)];
    xbar::ProgrammedXbar* tile =
        tm.tiles_[static_cast<std::size_t>(step.slot)].get();
    const std::int64_t k_used = step.k_used, m_used = step.m_used;
    Tensor acc;
    std::uint64_t passes = 0;
    simd::WorkspacePool::Lease lease = simd::shared_workspace_pool().acquire();
    simd::Workspace& ws = lease.get();

    if (path == Path::kIntDigital) {
      const std::vector<std::int8_t>& w8 =
          tm.wchunks_[static_cast<std::size_t>(step.slot)];
      std::span<std::int32_t> dot =
          ws.i32s(1, static_cast<std::size_t>(m_used * n));
      for (std::int64_t t = 0; t < streams; ++t) {
        const StreamBlock& sb =
            dacb[static_cast<std::size_t>(step.ti * streams + t)];
        if (!sb.active) continue;
        ++passes;
        std::fill(dot.begin(), dot.end(), 0);
        simd::gemm_at_i8_i32acc(dot.data(), w8.data(), sb.chunk.data(),
                                m_used, n, k_used, m_used, n, n);
        const float shift = step.shifts[static_cast<std::size_t>(t)];
        if (acc.numel() == 0) acc = Tensor({m_used, n});
        for (std::int64_t mm = 0; mm < m_used; ++mm)
          simd::adc_shift_add_i32(acc.raw() + mm * n, dot.data() + mm * n,
                                  sb.baseline.data(), n, dot_unit, i_scale,
                                  adc_steps, shift);
      }
    } else if (path == Path::kIntChunks && step.kernel != nullptr) {
      // Fused path: compiled per-cell tables replace the per-call table
      // build; currents land in pooled scratch (no per-pass Tensor).
      m_fused_runs.add();
      std::span<float> cur = ws.floats(3, static_cast<std::size_t>(m_used * n));
      for (std::int64_t t = 0; t < streams; ++t) {
        const StreamBlock& sb =
            dacb[static_cast<std::size_t>(step.ti * streams + t)];
        if (!sb.active) continue;
        ++passes;
        xbar::ChunkBlock cb;
        cb.chunk = sb.chunk.data();
        cb.row_max = sb.row_max.data();
        cb.rows = cfg.rows;
        cb.n = n;
        cb.v_unit = v_unit;
        step.kernel->run(cb, k_used, m_used, cur.data(), ws);
        const float shift = step.shifts[static_cast<std::size_t>(t)];
        if (acc.numel() == 0) acc = Tensor({m_used, n});
        for (std::int64_t mm = 0; mm < m_used; ++mm)
          simd::adc_shift_add(acc.raw() + mm * n, cur.data() + mm * n,
                              sb.baseline.data(), n, i_scale, adc_steps,
                              shift);
      }
    } else {
      std::unique_ptr<xbar::XbarStream> stream = tile->open_stream();
      for (std::int64_t t = 0; t < streams; ++t) {
        const StreamBlock& sb =
            dacb[static_cast<std::size_t>(step.ti * streams + t)];
        if (!sb.active) continue;
        ++passes;
        Tensor currents;
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
        const float shift = step.shifts[static_cast<std::size_t>(t)];
        if (acc.numel() == 0) acc = Tensor({m_used, n});
        for (std::int64_t mm = 0; mm < m_used; ++mm)
          simd::adc_shift_add(acc.raw() + mm * n, currents.raw() + mm * n,
                              sb.baseline.data(), n, i_scale, adc_steps,
                              shift);
      }
    }
    if (passes != 0) m_tile_mvms.add(passes);
    partial[static_cast<std::size_t>(step.slot)] = std::move(acc);
  });

  // Phase 3 — reduction in the interpreter's fixed (ti, pol, s) order.
  const std::int64_t slices = tm.hw_.weight_slices();
  parallel_for(tm.col_tiles_, [&](std::int64_t tj) {
    const std::int64_t m0 = tj * cfg.cols;
    const std::int64_t m_used = std::min(tm.m_, m0 + cfg.cols) - m0;
    for (std::int64_t ti = 0; ti < tm.row_tiles_; ++ti)
      for (int pol = 0; pol < 2; ++pol)
        for (std::int64_t s = 0; s < slices; ++s) {
          const std::size_t slot = static_cast<std::size_t>(
              ((ti * tm.col_tiles_ + tj) * 2 + pol) * slices + s);
          const Tensor& acc = partial[slot];
          if (acc.numel() == 0) continue;
          for (std::int64_t mm = 0; mm < m_used; ++mm) {
            const float* src = acc.raw() + mm * n;
            float* res = result.raw() + (m0 + mm) * n;
            for (std::int64_t nn = 0; nn < n; ++nn) res[nn] += src[nn];
          }
        }
  });

  const float x_unit =
      s_x / static_cast<float>((std::int64_t{1} << tm.hw_.input_bits) - 1);
  result *= tm.weight_scale_ * x_unit;
  return result;
}

std::shared_ptr<NetworkPlan> NetworkPlan::capture(nn::Network& net) {
  static metrics::Counter& m_caps = metrics::counter("plan/net_captures");
  nn::ir::Capture cap = nn::ir::capture(net);
  if (!cap.ok) return nullptr;
  std::uint64_t seed = 0x4e6574506c616eull;  // "NetPlan"
  seed = crc32(net.arch().data(), net.arch().size(),
               static_cast<std::uint32_t>(seed));
  const std::uint64_t hash = cap.graph.graph_hash(seed);
  m_caps.add();
  return std::shared_ptr<NetworkPlan>(
      new NetworkPlan(std::move(cap), hash, net.num_classes()));
}

Tensor NetworkPlan::forward(const Tensor& x) {
  NVM_TRACE_SPAN("puma/plan/net_forward");
  static metrics::Counter& m_execs = metrics::counter("plan/net_executes");
  m_execs.add();
  Tensor y = x;
  const bool record = !shapes_recorded_;
  if (record) cap_.graph.set_shape(cap_.input_node, y.shape());
  for (std::size_t i = 0; i < cap_.steps.size(); ++i) {
    y = cap_.steps[i]->forward(y, nn::Mode::Eval);
    if (record) cap_.graph.set_shape(cap_.step_nodes[i], y.shape());
  }
  if (record) {
    cap_.graph.set_shape(cap_.output_node, y.shape());
    shapes_recorded_ = true;
  }
  NVM_CHECK_EQ(y.numel(), num_classes_);
  return y;
}

}  // namespace nvm::puma
