// GENIEx surrogate, fast-noise model, MLP regressor, and NF measurement.
#include <gtest/gtest.h>

#include "common/check.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "common/health.h"
#include "common/simd.h"
#include "xbar/fast_noise.h"
#include "xbar/geniex.h"
#include "xbar/nf.h"

namespace nvm::xbar {
namespace {

CrossbarConfig small_config() {
  CrossbarConfig cfg = xbar_32x32_100k();
  cfg.rows = cfg.cols = 16;
  cfg.name = "16x16_test";
  return cfg;
}

/// One shared small fit for the whole test binary (training is the slow
/// part; tests only read it).
const GeniexFit& shared_fit() {
  static const GeniexFit fit = [] {
    GeniexTrainOptions opt;
    opt.solver_samples = 120;
    return GeniexModel::fit(small_config(), opt);
  }();
  return fit;
}

TEST(FastTanh, CloseToStdTanh) {
  for (float x = -6.0f; x <= 6.0f; x += 0.13f)
    EXPECT_NEAR(fast_tanh(x), std::tanh(x), 3e-3f) << "x=" << x;
  EXPECT_EQ(fast_tanh(10.0f), 1.0f);
  EXPECT_EQ(fast_tanh(-10.0f), -1.0f);
}

TEST(Mlp, LearnsQuadratic) {
  // y = x0^2 + 0.5*x1; a 2-16-1 tanh MLP fits this easily.
  Rng rng(1);
  const std::int64_t n = 512;
  Tensor x({n, 2});
  Tensor y({n});
  for (std::int64_t i = 0; i < n; ++i) {
    x.at(i, 0) = static_cast<float>(rng.uniform(-1, 1));
    x.at(i, 1) = static_cast<float>(rng.uniform(-1, 1));
    y[i] = x.at(i, 0) * x.at(i, 0) + 0.5f * x.at(i, 1);
  }
  MlpRegressor mlp(2, 16, rng);
  MlpTrainOptions opt;
  opt.epochs = 120;
  const float final_mse = mlp.train(x, y, opt);
  EXPECT_LT(final_mse, 3e-3f);
  EXPECT_LT(mlp.mse(x, y), 3e-3f);
}

TEST(Mlp, SaveLoadRoundTrip) {
  Rng rng(2);
  MlpRegressor mlp(4, 8, rng);
  std::stringstream ss;
  BinaryWriter w(ss);
  mlp.save(w);
  BinaryReader r(ss);
  MlpRegressor loaded = MlpRegressor::load(r);
  float feats[4] = {0.1f, -0.2f, 0.3f, 0.4f};
  EXPECT_EQ(mlp.predict({feats, 4}), loaded.predict({feats, 4}));
}

TEST(GeniexFeatures, ShapeAndRange) {
  CrossbarConfig cfg = small_config();
  Rng rng(3);
  Tensor g = sample_conductances(cfg, rng);
  Tensor v = sample_voltages(cfg, rng);
  Tensor f = geniex_features(cfg, g, v);
  EXPECT_EQ(f.dim(0), cfg.cols);
  EXPECT_EQ(f.dim(1), kGeniexFeatureCount);
  // Normalized features stay in a moderate range.
  EXPECT_LT(f.abs_max(), 3.0f);
}

TEST(GeniexFeatures, IdealCurrentFeatureIsExact) {
  CrossbarConfig cfg = small_config();
  Rng rng(4);
  Tensor g = sample_conductances(cfg, rng);
  Tensor v = sample_voltages(cfg, rng);
  Tensor f = geniex_features(cfg, g, v);
  Tensor iid = ideal_mvm(g, v);
  for (std::int64_t j = 0; j < cfg.cols; ++j)
    EXPECT_NEAR(f.at(j, 0), iid[j] / cfg.i_scale(), 1e-6f);
}

TEST(Geniex, FitGeneralizesToHeldOutSolverData) {
  // Validation MSE on the relative deviation target: a few percent RMS.
  EXPECT_LT(shared_fit().val_mse, 4e-4f);
}

TEST(Geniex, TracksSolverPerColumn) {
  CrossbarConfig cfg = small_config();
  GeniexModel model(cfg, shared_fit().mlp);
  Rng rng(5);
  double err = 0, scale = 0;
  for (int trial = 0; trial < 8; ++trial) {
    Tensor g = sample_conductances(cfg, rng);
    Tensor v = sample_voltages(cfg, rng);
    Tensor pred = model.program(g)->mvm(v);
    Tensor truth = solve_crossbar(cfg, {}, g, v);
    for (std::int64_t j = 0; j < cfg.cols; ++j) {
      err += std::abs(pred[j] - truth[j]);
      scale += std::abs(truth[j]);
    }
  }
  EXPECT_LT(err / scale, 0.05) << "mean relative error vs circuit solver";
}

TEST(Geniex, BatchedMatchesSingleVector) {
  CrossbarConfig cfg = small_config();
  GeniexModel model(cfg, shared_fit().mlp);
  Rng rng(6);
  Tensor g = sample_conductances(cfg, rng);
  auto programmed = model.program(g);
  const std::int64_t n = 5;
  Tensor vb({cfg.rows, n});
  for (std::int64_t k = 0; k < n; ++k) {
    Tensor v = sample_voltages(cfg, rng);
    for (std::int64_t i = 0; i < cfg.rows; ++i) vb.at(i, k) = v[i];
  }
  Tensor batched = programmed->mvm_batch(vb);
  for (std::int64_t k = 0; k < n; ++k) {
    Tensor v({cfg.rows});
    for (std::int64_t i = 0; i < cfg.rows; ++i) v[i] = vb.at(i, k);
    Tensor single = programmed->mvm(v);
    for (std::int64_t j = 0; j < cfg.cols; ++j)
      EXPECT_NEAR(single[j], batched.at(j, k), 1e-6f * cfg.i_scale());
  }
}

TEST(Geniex, ActiveRegionMatchesFullWhenPadded) {
  CrossbarConfig cfg = small_config();
  GeniexModel model(cfg, shared_fit().mlp);
  Rng rng(7);
  Tensor g = sample_conductances(cfg, rng);
  // Zero the voltages beyond row 10 — active evaluation must agree on the
  // first 12 columns.
  auto programmed = model.program(g);
  Tensor vb({cfg.rows, 3});
  for (std::int64_t i = 0; i < 10; ++i)
    for (std::int64_t k = 0; k < 3; ++k)
      vb.at(i, k) = static_cast<float>(rng.uniform(0, cfg.v_read));
  Tensor full = programmed->mvm_batch(vb);
  Tensor active = programmed->mvm_batch_active(vb, 10, 12);
  for (std::int64_t j = 0; j < 12; ++j)
    for (std::int64_t k = 0; k < 3; ++k)
      EXPECT_NEAR(full.at(j, k), active.at(j, k), 1e-7f * cfg.i_scale());
}

std::vector<simd::Isa> usable_isas() {
  std::vector<simd::Isa> isas{simd::Isa::Scalar};
  for (simd::Isa isa : {simd::Isa::Avx2, simd::Isa::Avx512, simd::Isa::Neon})
    if (simd::isa_usable(isa)) isas.push_back(isa);
  return isas;
}

TEST(Geniex, FoldedEvaluationMatchesFeatureReference) {
  // The crossbar evaluation computes the features with one GEMM and runs a
  // first layer with the input-independent features folded out. The
  // reference assembles the ten features one input vector at a time
  // (double accumulation), runs MlpRegressor::predict and applies the same
  // clamp. The two differ only in float rounding order, the gemm kernels'
  // [~ulp] class: measured below 5e-8 of i_scale on every tier; the bound
  // leaves 20x.
  constexpr double kTol = 1e-6;
  CrossbarConfig cfg = small_config();
  const MlpRegressor& mlp = shared_fit().mlp;
  GeniexModel model(cfg, mlp);
  Rng rng(24);
  Tensor g = sample_conductances(cfg, rng);
  auto programmed = model.program(g);
  const float i_scale = static_cast<float>(cfg.i_scale());
  const auto fallbacks = health_value(HealthCounter::SurrogateFallback);
  const std::pair<std::int64_t, std::int64_t> regions[] = {
      {cfg.rows, cfg.cols}, {cfg.rows - 5, cfg.cols - 3}, {7, 5}};
  for (const auto& [rows_used, cols_used] : regions) {
    for (const std::int64_t n : {0, 1, 9, 16, 36, 144}) {  // 0: empty batch
      Tensor vb({cfg.rows, n});
      Tensor want({cols_used, n});
      for (std::int64_t k = 0; k < n; ++k) {
        Tensor v = sample_voltages(cfg, rng);
        for (std::int64_t i = rows_used; i < cfg.rows; ++i) v[i] = 0.0f;
        for (std::int64_t i = 0; i < cfg.rows; ++i) vb.at(i, k) = v[i];
        const Tensor f = geniex_features(cfg, g, v);
        const Tensor iid = ideal_mvm(g, v);
        for (std::int64_t j = 0; j < cols_used; ++j) {
          const float r = mlp.predict(
              {f.raw() + j * kGeniexFeatureCount, kGeniexFeatureCount});
          const float denom = std::max(iid[j], kGeniexRelFloor * i_scale);
          want.at(j, k) = std::clamp(iid[j] - r * denom, 0.0f, i_scale);
        }
      }
      for (simd::Isa isa : usable_isas()) {
        simd::ScopedIsaForTests scope(isa);
        Tensor got = programmed->mvm_multi_active(vb, rows_used, cols_used);
        for (std::int64_t j = 0; j < cols_used; ++j)
          for (std::int64_t k = 0; k < n; ++k)
            ASSERT_NEAR(got.at(j, k), want.at(j, k), kTol * i_scale)
                << "isa=" << simd::isa_name(isa) << " rows_used=" << rows_used
                << " cols_used=" << cols_used << " n=" << n << " col=" << j
                << " sample=" << k;
      }
    }
  }
  // Like for like: no sample took the fast-noise fallback.
  EXPECT_EQ(health_value(HealthCounter::SurrogateFallback), fallbacks);
}

TEST(Geniex, OutputsPhysicallyClamped) {
  CrossbarConfig cfg = small_config();
  GeniexModel model(cfg, shared_fit().mlp);
  Rng rng(8);
  Tensor g = sample_conductances(cfg, rng);
  Tensor v = Tensor::full({cfg.rows}, static_cast<float>(cfg.v_read));
  Tensor out = model.program(g)->mvm(v);
  EXPECT_GE(out.min(), 0.0f);
  EXPECT_LE(out.max(), cfg.i_scale() * (1 + 1e-6));
}

TEST(Geniex, GuardFallsBackToFastNoiseOutsideEnvelope) {
  // An absurdly tight trust envelope forces every prediction out of
  // bounds: the guarded model must degrade to the fast-noise fallback
  // (bit-identical to evaluating it directly) and count the event —
  // graceful degradation, not a crash and not a silently-trusted output.
  CrossbarConfig cfg = small_config();
  GeniexGuardOptions tight;
  tight.rel_min = -1e-6f;
  tight.rel_max = 1e-6f;
  GeniexModel guarded(cfg, shared_fit().mlp, tight);
  FastNoiseModel fallback(cfg);
  Rng rng(21);
  Tensor g = sample_conductances(cfg, rng);
  Tensor v = sample_voltages(cfg, rng);
  const auto before = health_value(HealthCounter::SurrogateFallback);
  Tensor out = guarded.program(g)->mvm(v);
  EXPECT_GT(health_value(HealthCounter::SurrogateFallback), before);
  EXPECT_EQ(max_abs_diff(out, fallback.program(g)->mvm(v)), 0.0f);
}

TEST(Geniex, GuardIsQuietOnInDistributionInputs) {
  // The default envelope exists for driven-off-distribution inputs; on
  // the surrogate's own training distribution it must not fire.
  CrossbarConfig cfg = small_config();
  GeniexModel model(cfg, shared_fit().mlp);
  Rng rng(22);
  const auto before = health_value(HealthCounter::SurrogateFallback);
  for (int trial = 0; trial < 4; ++trial) {
    Tensor g = sample_conductances(cfg, rng);
    auto programmed = model.program(g);
    (void)programmed->mvm(sample_voltages(cfg, rng));
  }
  EXPECT_EQ(health_value(HealthCounter::SurrogateFallback), before);
}

TEST(Geniex, GuardDisabledMatchesDefaultOnNominalInputs) {
  CrossbarConfig cfg = small_config();
  GeniexGuardOptions off;
  off.enabled = false;
  GeniexModel unguarded(cfg, shared_fit().mlp, off);
  GeniexModel guarded(cfg, shared_fit().mlp);
  Rng rng(23);
  Tensor g = sample_conductances(cfg, rng);
  Tensor v = sample_voltages(cfg, rng);
  EXPECT_EQ(max_abs_diff(unguarded.program(g)->mvm(v),
                         guarded.program(g)->mvm(v)),
            0.0f);
}

TEST(Geniex, GuardRejectsInvertedEnvelope) {
  GeniexGuardOptions bad;
  bad.rel_min = 1.0f;
  bad.rel_max = 0.0f;
  EXPECT_THROW(GeniexModel(small_config(), shared_fit().mlp, bad),
               CheckError);
}

TEST(FastNoise, ReducesCurrentVsIdeal) {
  CrossbarConfig cfg = small_config();
  FastNoiseModel model(cfg);
  Rng rng(9);
  Tensor g = sample_conductances(cfg, rng);
  Tensor v = Tensor::full({cfg.rows}, static_cast<float>(cfg.v_read));
  Tensor out = model.program(g)->mvm(v);
  Tensor ideal = ideal_mvm(g, v);
  // At full drive, resistive losses dominate the sinh boost.
  EXPECT_LT(out.sum(), ideal.sum());
}

TEST(FastNoise, ApproximatesSolverCoarsely) {
  CrossbarConfig cfg = small_config();
  FastNoiseModel model(cfg);
  Rng rng(10);
  double err = 0, scale = 0;
  for (int trial = 0; trial < 6; ++trial) {
    Tensor g = sample_conductances(cfg, rng);
    Tensor v = sample_voltages(cfg, rng);
    Tensor pred = model.program(g)->mvm(v);
    Tensor truth = solve_crossbar(cfg, {}, g, v);
    for (std::int64_t j = 0; j < cfg.cols; ++j) {
      err += std::abs(pred[j] - truth[j]);
      scale += std::abs(truth[j]);
    }
  }
  EXPECT_LT(err / scale, 0.12);
}

TEST(Nf, IdealModelHasZeroNf) {
  IdealXbarModel model(small_config());
  NfOptions opt;
  opt.samples = 8;
  EXPECT_NEAR(measure_nf(model, opt).nf, 0.0, 1e-6);
}

TEST(Nf, SolverOrderingMatchesTableI) {
  NfOptions opt;
  opt.samples = 6;
  CircuitSolverModel m300(xbar_64x64_300k());
  CircuitSolverModel m32(xbar_32x32_100k());
  CircuitSolverModel m100(xbar_64x64_100k());
  const double nf300 = measure_nf(m300, opt).nf;
  const double nf32 = measure_nf(m32, opt).nf;
  const double nf100 = measure_nf(m100, opt).nf;
  EXPECT_LT(nf300, nf32);
  EXPECT_LT(nf32, nf100);
  EXPECT_GT(nf300, 0.0);
  EXPECT_NEAR(nf100, 0.26, 0.08);
}

TEST(Nf, DeterministicForSeed) {
  FastNoiseModel model(small_config());
  NfOptions opt;
  opt.samples = 4;
  EXPECT_EQ(measure_nf(model, opt).nf, measure_nf(model, opt).nf);
}

TEST(SampleGenerators, RespectPhysicalRanges) {
  CrossbarConfig cfg = small_config();
  Rng rng(11);
  for (int i = 0; i < 16; ++i) {
    Tensor g = sample_conductances(cfg, rng);
    EXPECT_GE(g.min(), cfg.g_off() * (1 - 1e-6));
    EXPECT_LE(g.max(), cfg.g_on() * (1 + 1e-6));
    Tensor v = sample_voltages(cfg, rng);
    EXPECT_GE(v.min(), 0.0f);
    EXPECT_LE(v.max(), cfg.v_read * (1 + 1e-6));
  }
}

}  // namespace
}  // namespace nvm::xbar
