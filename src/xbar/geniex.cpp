#include "xbar/geniex.h"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <span>

#include "common/check.h"
#include "common/simd.h"
#include "common/file_cache.h"
#include "common/health.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "tensor/ops.h"

namespace nvm::xbar {

namespace {

/// Column-wire distance weight of row i: the share of the column wire a
/// current from row i travels before it reaches the sense end.
float wire_distance(std::int64_t rows, std::int64_t i) {
  return static_cast<float>(rows - 1 - i) / static_cast<float>(rows);
}

/// Precomputed per-programming state shared by feature assembly.
struct ProgramStats {
  Tensor gt;       // (cols, rows)
  Tensor gsum;     // (cols)
  Tensor growsum;  // (rows)
  float garr = 0;  // normalized total conductance

  ProgramStats(const CrossbarConfig& cfg, const Tensor& g)
      : gt({cfg.cols, cfg.rows}), gsum({cfg.cols}), growsum({cfg.rows}) {
    const std::int64_t rows = cfg.rows, cols = cfg.cols;
    const float* pg = g.raw();
    float* pgt = gt.raw();
    float* pgsum = gsum.raw();
    double total = 0.0;
    for (std::int64_t i = 0; i < rows; ++i) {
      const float* grow = pg + i * cols;
      double rsum = 0.0;
      for (std::int64_t j = 0; j < cols; ++j) {
        const float gij = grow[j];
        rsum += gij;
        pgsum[j] += gij;
        pgt[j * rows + i] = gij;
      }
      growsum[i] = static_cast<float>(rsum);
      total += rsum;
    }
    garr = static_cast<float>(total / (cfg.g_on() * rows * cols));
  }
};

/// Denominators of the features that scale with the programmed state.
struct FeatureScales {
  float i;  // ideal current
  float g;  // column load
  float e;  // device energy
  float p;  // row loading
  float w;  // wire distance

  explicit FeatureScales(const CrossbarConfig& cfg) {
    const auto rows = static_cast<float>(cfg.rows);
    const float g_on = static_cast<float>(cfg.g_on());
    const float v_read = static_cast<float>(cfg.v_read);
    i = static_cast<float>(cfg.i_scale());
    g = g_on * rows;
    e = g_on * v_read * v_read * rows;
    p = g_on * g_on * v_read * rows * rows;
    w = g_on * v_read * rows;
  }
};

/// Column position feature of column j.
float column_position(const CrossbarConfig& cfg, std::int64_t j) {
  const auto cols = static_cast<float>(cfg.cols);
  return cols > 1 ? static_cast<float>(j) / (cols - 1) : 0.0f;
}

/// Fills one feature row. `iid` is the ideal current of column j.
void fill_features(const CrossbarConfig& cfg, const ProgramStats& st,
                   std::int64_t j, float iid, float vbar, float v2bar,
                   float rbar, float e_j, float p_j, float w_j, float* out) {
  const FeatureScales sc(cfg);
  out[0] = iid / sc.i;
  out[1] = st.gsum[j] / sc.g;
  out[2] = vbar;
  out[3] = v2bar;
  out[4] = e_j / sc.e;
  out[5] = p_j / sc.p;
  out[6] = rbar;
  out[7] = column_position(cfg, j);
  out[8] = st.garr;
  out[9] = w_j / sc.w;
}

}  // namespace

/// The surrogate MLP with the structure of its ten input features folded
/// out (fill_features lists them). Four vary per (column, sample) and come
/// straight out of the feature GEMM: ideal current, energy, row loading,
/// wire distance. Three vary per sample only: v-bar, v2-bar, r-bar. Three
/// are fixed per programmed column: column load, position, array load.
/// The normalisers of the first two groups move into their first-layer
/// weights, so hidden unit h's pre-activation for (column j, sample k) is
///   b1 + w_col . [load_j, pos_j, garr]      (per column, once per call)
///      + w_smp . [sum v, sum v^2, sum v*growsum]_k  (per sample, once)
///      + w_x . [iid, e, p, wd]_jk           (a 4-input first layer).
struct GeniexFoldedMlp {
  std::int64_t hidden = 0;
  std::vector<float> w_x;    // (hidden, 4): raw iid, e, p, wd
  std::vector<float> w_smp;  // (hidden, 3): raw sum v, sum v^2, sum v*growsum
  std::vector<float> w_col;  // (hidden, 3): column load, position, garr
  std::vector<float> b1;     // (hidden)
  std::vector<float> w2;     // (hidden)
  float b2 = 0;

  GeniexFoldedMlp(const CrossbarConfig& cfg, const MlpRegressor& mlp)
      : hidden(mlp.hidden()),
        w_x(static_cast<std::size_t>(hidden * 4)),
        w_smp(static_cast<std::size_t>(hidden * 3)),
        w_col(static_cast<std::size_t>(hidden * 3)),
        b1(mlp.b1().data().begin(), mlp.b1().data().end()),
        w2(mlp.w2().data().begin(), mlp.w2().data().end()),
        b2(mlp.b2()) {
    NVM_CHECK_EQ(mlp.in_dim(), kGeniexFeatureCount);
    const FeatureScales sc(cfg);
    const auto rows = static_cast<float>(cfg.rows);
    const float g_on = static_cast<float>(cfg.g_on());
    const float v_read = static_cast<float>(cfg.v_read);
    const float d_v = v_read * rows;
    const float d_v2 = v_read * v_read * rows;
    const float d_r = g_on * v_read * rows * rows;
    for (std::int64_t h = 0; h < hidden; ++h) {
      const float* w = mlp.w1().raw() + h * kGeniexFeatureCount;
      float* x = w_x.data() + h * 4;
      float* smp = w_smp.data() + h * 3;
      float* col = w_col.data() + h * 3;
      x[0] = w[0] / sc.i;
      x[1] = w[4] / sc.e;
      x[2] = w[5] / sc.p;
      x[3] = w[9] / sc.w;
      smp[0] = w[2] / d_v;
      smp[1] = w[3] / d_v2;
      smp[2] = w[6] / d_r;
      col[0] = w[1] / sc.g;
      col[1] = w[7];
      col[2] = w[8];
    }
  }
};

namespace {

class GeniexProgrammed final : public ProgrammedXbar {
 public:
  GeniexProgrammed(const CrossbarConfig& cfg,
                   std::shared_ptr<const GeniexFoldedMlp> mlp,
                   const GeniexGuardOptions& guard,
                   const FastNoiseModel& fallback, const Tensor& g)
      : cfg_(cfg),
        mlp_(std::move(mlp)),
        guard_(guard),
        fallback_(fallback),
        stats_(cfg, g) {}

  Tensor mvm(const Tensor& v) override {
    Tensor vb = v.reshaped({cfg_.rows, 1});
    Tensor out = mvm_batch(vb);
    return out.reshaped({cfg_.cols});
  }

  Tensor mvm_batch(const Tensor& vb) override {
    return eval_block(vb, cfg_.rows, cfg_.cols);
  }

  Tensor mvm_batch_active(const Tensor& vb, std::int64_t rows_used,
                          std::int64_t cols_used) override {
    return eval_block(vb, rows_used, cols_used);
  }

  Tensor mvm_multi(const Tensor& v_block) override {
    NVM_CHECK_EQ(v_block.rank(), 2u);
    count_mvm_multi_columns(v_block.dim(1));
    return eval_block(v_block, cfg_.rows, cfg_.cols);
  }

  Tensor mvm_multi_active(const Tensor& v_block, std::int64_t rows_used,
                          std::int64_t cols_used) override {
    NVM_CHECK_EQ(v_block.rank(), 2u);
    count_mvm_multi_columns(v_block.dim(1));
    return eval_block(v_block, rows_used, cols_used);
  }

 private:
  /// The blocked evaluation core behind every entry point, in three
  /// steps on the nvm::simd gemm kernels:
  ///   1. features: one GEMM of the stored G^T against the stacked input
  ///      block [v | v^2 | v*growsum_i | v*dist_i] gives the ideal-current,
  ///      energy, row-loading and wire-distance sums of every column;
  ///   2. the per-column and per-sample first-layer terms
  ///      (GeniexFoldedMlp) are computed once per call;
  ///   3. the 4-input first layer, tanh and output layer run as one fused
  ///      simd::mlp_tanh_accum call per column, bit-identical on each tier
  ///      to running them as separate gemm / tanh_block kernels.
  /// The sample dimension is padded to kMlpSamplePad, so every sample runs
  /// through the kernels' vector body and each output is a pure function
  /// of its own input vector: any blocking of the same inputs (including
  /// n=1 single-vector mvm) gives bit-identical outputs on a given tier.
  /// Across tiers the output is in the gemm kernels' [~ulp] class.
  Tensor eval_block(const Tensor& vb, std::int64_t rows_used,
                    std::int64_t cols_used) {
    NVM_TRACE_SPAN("xbar/geniex/mvm_batch");
    NVM_CHECK_EQ(vb.rank(), 2u);
    NVM_CHECK_EQ(vb.dim(0), cfg_.rows);
    NVM_CHECK(rows_used >= 1 && rows_used <= cfg_.rows);
    NVM_CHECK(cols_used >= 1 && cols_used <= cfg_.cols);
    const std::int64_t rows = cfg_.rows, n = vb.dim(1);
    const std::int64_t np =
        (n + kMlpSamplePad - 1) / kMlpSamplePad * kMlpSamplePad;
    const std::int64_t ldx = 4 * np;  // stacked input row: 4 segments
    const std::int64_t hidden = mlp_->hidden;
    const float i_scale = static_cast<float>(cfg_.i_scale());
    Tensor out({cfg_.cols, n});
    if (n == 0) return out;

    // All per-call scratch lives in a per-thread workspace: one tiled
    // matmul evaluates thousands of chunk blocks, and the reused buffers
    // keep this path allocation-free after warm-up.
    thread_local simd::Workspace ws;
    const auto scratch = [](int slot, std::int64_t size) {
      return ws.floats(slot, static_cast<std::size_t>(size)).data();
    };

    // Stacked input block (rows_used x 4 segments of np). Rows beyond
    // rows_used are zero volts and would add nothing to any sum; padding
    // samples are zero.
    float* xs = scratch(0, rows_used * ldx);
    for (std::int64_t i = 0; i < rows_used; ++i) {
      const float* v = vb.raw() + i * n;
      float* d = xs + i * ldx;
      std::copy(v, v + n, d);
      for (std::int64_t k = 0; k < n; ++k) d[np + k] = v[k] * v[k];
      simd::scale(d + 2 * np, v, stats_.growsum[i], n);
      simd::scale(d + 3 * np, v, wire_distance(rows, i), n);
      for (std::int64_t f = 0; f < 4; ++f)
        std::fill(d + f * np + n, d + (f + 1) * np, 0.0f);
    }

    // Step 2, per sample (hidden x np): the column sums of the first three
    // segments (a row of ones against the block), then w_smp.
    float* ones = scratch(1, rows_used);
    std::fill(ones, ones + rows_used, 1.0f);
    float* sums = scratch(2, 3 * np);
    std::fill(sums, sums + 3 * np, 0.0f);
    simd::gemm_accum(sums, ones, xs, 1, 3 * np, rows_used, rows_used, ldx,
                     3 * np);
    float* smp = scratch(3, hidden * np);
    std::fill(smp, smp + hidden * np, 0.0f);
    simd::gemm_accum(smp, mlp_->w_smp.data(), sums, hidden, np, 3, 3, np, np);

    // Columns go through steps 1 and 3 in blocks of cb, sized so the
    // block's features stay cache-resident; a multiple of 4 keeps the
    // feature GEMM on full microtiles. Each column's feature row carries a
    // fifth segment of ones, which applies its constant term inside the
    // first layer.
    constexpr std::int64_t kBlockSamples = 2048;
    const std::int64_t cb = std::min(
        cols_used, std::max<std::int64_t>(4, kBlockSamples / np / 4 * 4));
    const std::int64_t ldf = 5 * np;
    float* feat = scratch(4, cb * ldf);
    for (std::int64_t jj = 0; jj < cb; ++jj)
      std::fill(feat + jj * ldf + 4 * np, feat + (jj + 1) * ldf, 1.0f);
    float* w1 = scratch(5, hidden * 5);  // [w_x | c_j] of one column
    float* rel = scratch(7, cb * np);
    std::span<std::int8_t> flagged = ws.i8s(0, static_cast<std::size_t>(n));
    std::fill(flagged.begin(), flagged.end(), std::int8_t{0});
    bool any_fallback = false;
    const float rel_floor = kGeniexRelFloor * i_scale;
    for (std::int64_t j0 = 0; j0 < cols_used; j0 += cb) {
      const std::int64_t m = std::min(cb, cols_used - j0);
      // Step 1: feature row [iid | e | p | wd] of each column in the block.
      for (std::int64_t jj = 0; jj < m; ++jj)
        std::fill(feat + jj * ldf, feat + jj * ldf + ldx, 0.0f);
      simd::gemm_accum(feat, stats_.gt.raw() + j0 * rows, xs, m, ldx,
                       rows_used, rows, ldx, ldf);
      // Step 2 per column (c_j), then step 3 in one fused kernel:
      // rel_j = b2 + w2 . tanh(per-sample term + [w_x | c_j] * [features;
      // ones]), the hidden activations never leaving registers.
      std::fill(rel, rel + m * np, mlp_->b2);
      for (std::int64_t jj = 0; jj < m; ++jj) {
        const std::int64_t j = j0 + jj;
        const float load = stats_.gsum[j];
        const float pos = column_position(cfg_, j);
        for (std::int64_t h = 0; h < hidden; ++h) {
          const float* wc = mlp_->w_col.data() + h * 3;
          std::copy(mlp_->w_x.data() + h * 4, mlp_->w_x.data() + h * 4 + 4,
                    w1 + h * 5);
          w1[h * 5 + 4] = mlp_->b1[static_cast<std::size_t>(h)] +
                          wc[0] * load + wc[1] * pos + wc[2] * stats_.garr;
        }
        simd::mlp_tanh_accum(rel + jj * np, smp, w1, feat + jj * ldf,
                             mlp_->w2.data(), hidden, np, 5, np, 5, np);
      }

      for (std::int64_t jj = 0; jj < m; ++jj) {
        const float* iid = feat + jj * ldf;
        const float* rj = rel + jj * np;
        float* o = out.raw() + (j0 + jj) * n;
        for (std::int64_t k = 0; k < n; ++k) {
          const float r = rj[k];
          if (guard_.enabled && (!std::isfinite(r) || r < guard_.rel_min ||
                                 r > guard_.rel_max)) {
            // Out-of-envelope deviation: the surrogate is off its training
            // distribution for this input. Its whole column set for
            // sample k is distrusted and re-evaluated on the fallback
            // model below.
            flagged[static_cast<std::size_t>(k)] = 1;
            any_fallback = true;
          }
          const float denom = std::max(iid[k], rel_floor);
          // Physical clamp: column current is non-negative and bounded by
          // the full-scale current.
          o[k] = std::clamp(iid[k] - r * denom, 0.0f, i_scale);
        }
      }
    }
    if (any_fallback) degrade_to_fallback(vb, flagged, cols_used, out);
    guard_output_finite(out.raw(), cols_used * n, "geniex");
    static metrics::Counter& preds = metrics::counter("xbar/geniex/predictions");
    preds.add(static_cast<std::uint64_t>(cols_used * n));
    return out;
  }

 private:
  /// Replaces the output columns of every flagged sample with the
  /// fast-noise model's prediction (counted + logged, never a crash).
  void degrade_to_fallback(const Tensor& vb,
                           std::span<const std::int8_t> flagged,
                           std::int64_t cols_used, Tensor& out) {
    const std::int64_t rows = cfg_.rows, n = vb.dim(1);
    std::uint64_t dropped = 0;
    for (std::int64_t k = 0; k < n; ++k) {
      if (flagged[static_cast<std::size_t>(k)] == 0) continue;
      ++dropped;
      Tensor v({rows});
      for (std::int64_t i = 0; i < rows; ++i) v[i] = vb.at(i, k);
      Tensor y = fallback_xbar().mvm(v);
      for (std::int64_t j = 0; j < cols_used; ++j) out.at(j, k) = y[j];
    }
    const std::uint64_t total = bump(HealthCounter::SurrogateFallback, dropped);
    if (health_should_log(total))
      NVM_LOG(Warn) << "geniex surrogate out of envelope on " << cfg_.name
                    << " for " << dropped << " of " << n
                    << " input vector(s); fell back to fast_noise (total "
                    << total << ")";
  }

  /// The degradation target, programmed on first use with the same
  /// conductances (G = transpose of the stored G^T, exactly). Out-of-
  /// envelope inputs are rare, so most tiles never pay for it; call_once
  /// keeps concurrent fallbacks on one tile race-free and programs it
  /// exactly once.
  ProgrammedXbar& fallback_xbar() {
    std::call_once(fallback_once_, [&] {
      fallback_xbar_ = fallback_.program(transpose2d(stats_.gt));
      static metrics::Counter& programs =
          metrics::counter("xbar/geniex/fallback_programs");
      programs.add();
    });
    return *fallback_xbar_;
  }

  const CrossbarConfig& cfg_;
  std::shared_ptr<const GeniexFoldedMlp> mlp_;
  GeniexGuardOptions guard_;
  const FastNoiseModel& fallback_;
  std::once_flag fallback_once_;
  std::unique_ptr<ProgrammedXbar> fallback_xbar_;
  ProgramStats stats_;
};

}  // namespace

Tensor geniex_features(const CrossbarConfig& cfg, const Tensor& g,
                       const Tensor& v) {
  validate_conductances(g, cfg);
  NVM_CHECK_EQ(v.numel(), cfg.rows);
  ProgramStats st(cfg, g);
  const std::int64_t rows = cfg.rows, cols = cfg.cols;
  const float v_read = static_cast<float>(cfg.v_read);
  const float g_on = static_cast<float>(cfg.g_on());

  double sv = 0, sv2 = 0, sr = 0;
  for (std::int64_t i = 0; i < rows; ++i) {
    sv += v[i];
    sv2 += static_cast<double>(v[i]) * v[i];
    sr += static_cast<double>(v[i]) * st.growsum[i];
  }
  const float vbar = static_cast<float>(sv / (v_read * rows));
  const float v2bar = static_cast<float>(sv2 / (v_read * v_read * rows));
  const float rbar = static_cast<float>(sr / (g_on * v_read * rows * rows));

  Tensor iid = matvec(st.gt, v);
  Tensor e({cols}), p({cols}), wd({cols});
  for (std::int64_t j = 0; j < cols; ++j) {
    double ej = 0, pj = 0, wj = 0;
    for (std::int64_t i = 0; i < rows; ++i) {
      const float gij = st.gt.at(j, i);
      ej += static_cast<double>(gij) * v[i] * v[i];
      pj += static_cast<double>(gij) * v[i] * st.growsum[i];
      // Wire-distance weight with the training features' own rounding.
      const float gd = gij * static_cast<float>(rows - 1 - i) /
                       static_cast<float>(rows);
      wj += static_cast<double>(gd) * v[i];
    }
    e[j] = static_cast<float>(ej);
    p[j] = static_cast<float>(pj);
    wd[j] = static_cast<float>(wj);
  }

  Tensor feats({cols, kGeniexFeatureCount});
  for (std::int64_t j = 0; j < cols; ++j)
    fill_features(cfg, st, j, iid[j], vbar, v2bar, rbar, e[j], p[j], wd[j],
                  feats.raw() + j * kGeniexFeatureCount);
  return feats;
}

Tensor sample_conductances(const CrossbarConfig& cfg, Rng& rng) {
  const float g_off = static_cast<float>(cfg.g_off());
  const float g_on = static_cast<float>(cfg.g_on());
  const float span = g_on - g_off;
  Tensor g({cfg.rows, cfg.cols});
  const int pattern = static_cast<int>(rng.uniform_index(3));
  const auto levels = static_cast<double>(cfg.levels - 1);
  for (auto& val : g.data()) {
    double u;
    switch (pattern) {
      case 0:  // uniform across the full range
        u = rng.uniform();
        break;
      case 1:  // quantized to device levels (as programmed weight slices)
        u = std::round(rng.uniform() * levels) / levels;
        break;
      default:  // mostly-OFF, like sliced near-zero DNN weights
        u = rng.bernoulli(0.3) ? rng.uniform() : rng.uniform() * 0.15;
        break;
    }
    val = g_off + span * static_cast<float>(u);
  }
  return g;
}

Tensor sample_voltages(const CrossbarConfig& cfg, Rng& rng) {
  const float v_read = static_cast<float>(cfg.v_read);
  Tensor v({cfg.rows});
  const int pattern = static_cast<int>(rng.uniform_index(4));
  const double sparsity = rng.uniform(0.3, 0.97);
  for (auto& val : v.data()) {
    switch (pattern) {
      case 0:  // dense DAC levels
        val = v_read * static_cast<float>(
                           std::round(rng.uniform() * 7.0) / 7.0);
        break;
      case 1:  // sparse post-ReLU-like
        val = rng.bernoulli(sparsity)
                  ? 0.0f
                  : v_read * static_cast<float>(rng.uniform());
        break;
      case 2:  // binary streams
        val = rng.bernoulli(0.5) ? v_read : 0.0f;
        break;
      default:  // low-amplitude
        val = v_read * static_cast<float>(rng.uniform() * 0.3);
        break;
    }
  }
  return v;
}

GeniexModel::GeniexModel(CrossbarConfig cfg, MlpRegressor mlp,
                         GeniexGuardOptions guard)
    : cfg_(std::move(cfg)),
      mlp_(std::move(mlp)),
      guard_(guard),
      fallback_(cfg_),
      folded_(std::make_shared<const GeniexFoldedMlp>(cfg_, mlp_)) {
  NVM_CHECK(guard_.rel_min < guard_.rel_max);
}

GeniexFit GeniexModel::fit(const CrossbarConfig& cfg,
                           const GeniexTrainOptions& opt) {
  trace::Span fit_span("xbar/geniex/fit");
  Rng rng(opt.seed);
  const std::int64_t n_samples = opt.solver_samples;
  NVM_CHECK_GT(n_samples, 10);
  const std::int64_t n_rows = n_samples * cfg.cols;
  Tensor x({n_rows, kGeniexFeatureCount});
  Tensor y({n_rows});
  const float i_scale = static_cast<float>(cfg.i_scale());

  NVM_LOG(Info) << "GENIEx fit for " << cfg.name << ": " << n_samples
                << " circuit solves across " << ThreadPool::current().size()
                << " thread(s)";
  // Each sample draws from its own split stream and writes disjoint rows
  // of (x, y), so the solves fan out across the pool with results
  // bit-identical to a serial run.
  parallel_for(n_samples, [&](std::int64_t s) {
    Rng srng = rng.split(static_cast<std::uint64_t>(s));
    Tensor g = sample_conductances(cfg, srng);
    Tensor v = sample_voltages(cfg, srng);
    Tensor feats = geniex_features(cfg, g, v);
    Tensor i_ideal = ideal_mvm(g, v);
    Tensor i_ni = solve_crossbar(cfg, opt.solver, g, v);
    for (std::int64_t j = 0; j < cfg.cols; ++j) {
      const std::int64_t row = s * cfg.cols + j;
      for (std::int64_t f = 0; f < kGeniexFeatureCount; ++f)
        x.at(row, f) = feats.at(j, f);
      const float denom = std::max(i_ideal[j], kGeniexRelFloor * i_scale);
      y[row] = (i_ideal[j] - i_ni[j]) / denom;
    }
  });

  // Hold out the last 12.5% of solves for validation.
  const std::int64_t n_train = (n_rows * 7) / 8;
  Tensor x_train({n_train, kGeniexFeatureCount});
  Tensor y_train({n_train});
  Tensor x_val({n_rows - n_train, kGeniexFeatureCount});
  Tensor y_val({n_rows - n_train});
  for (std::int64_t i = 0; i < n_rows; ++i) {
    Tensor& xd = (i < n_train) ? x_train : x_val;
    Tensor& yd = (i < n_train) ? y_train : y_val;
    const std::int64_t r = (i < n_train) ? i : i - n_train;
    for (std::int64_t f = 0; f < kGeniexFeatureCount; ++f)
      xd.at(r, f) = x.at(i, f);
    yd[r] = y[i];
  }

  Rng init_rng(opt.seed + 1);
  MlpRegressor mlp(kGeniexFeatureCount, opt.hidden, init_rng);
  const float train_mse = mlp.train(x_train, y_train, opt.mlp);
  const float val_mse = mlp.mse(x_val, y_val);
  metrics::counter("xbar/geniex/fits").add();
  metrics::gauge("xbar/geniex/fit_seconds").set(fit_span.seconds());
  metrics::gauge("xbar/geniex/val_mse").set(val_mse);
  NVM_LOG(Info) << "GENIEx " << cfg.name << " train_mse=" << train_mse
                << " val_mse=" << val_mse;
  return GeniexFit{std::move(mlp), train_mse, val_mse};
}

std::string geniex_cache_tag(const CrossbarConfig& cfg,
                             const GeniexTrainOptions& opt) {
  // The fit runs cold solves only, so solver.warm_start_streams never
  // reaches it, and solver.ordering is bit-identical; neither is keyed.
  // "ps1" marks the per-sample split-stream sampling scheme; bumping it
  // invalidates caches fitted from the old sequential-draw scheme.
  const SolverOptions& so = opt.solver;
  std::ostringstream tag;
  tag << cfg.tag() << "_s" << opt.solver_samples << "_h" << opt.hidden
      << "_e" << opt.mlp.epochs << "_seed" << opt.seed << "_b"
      << opt.mlp.batch << "_lr" << opt.mlp.lr << "_ms" << opt.mlp.seed
      << "_tol" << so.tol << "_sw" << so.max_sweeps << "_cs"
      << so.coarse_start << "_rx" << so.relaxation << "_rt"
      << so.retry_on_nonconvergence << "_ps1";
  return tag.str();
}

GeniexModel GeniexModel::load_or_train(const CrossbarConfig& cfg,
                                       const GeniexTrainOptions& opt) {
  const std::string tag = geniex_cache_tag(cfg, opt);
  const std::string file = "geniex_" + cfg.name + ".bin";

  std::optional<MlpRegressor> mlp;
  cache_load(file, tag,
             [&](BinaryReader& r) { mlp = MlpRegressor::load(r); });
  if (!mlp.has_value()) {
    GeniexFit fitted = fit(cfg, opt);
    mlp = std::move(fitted.mlp);
    cache_store(file, tag, [&](BinaryWriter& w) { mlp->save(w); });
  }
  return GeniexModel(cfg, std::move(*mlp));
}

std::unique_ptr<ProgrammedXbar> GeniexModel::program(const Tensor& g) const {
  validate_conductances(g, cfg_);
  return std::make_unique<GeniexProgrammed>(cfg_, folded_, guard_, fallback_,
                                            g);
}

}  // namespace nvm::xbar
