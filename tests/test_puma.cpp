// Quantization, bit-slicing, tiled crossbar GEMM (including fused vs
// unfused tile slots), and engine tests.
#include <gtest/gtest.h>

#include <cmath>

#include "common/check.h"

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/simd.h"
#include "common/thread_pool.h"
#include "puma/bit_slicing.h"
#include "puma/engine.h"
#include "puma/quantize.h"
#include "tensor/ops.h"
#include "xbar/fast_noise.h"
#include "xbar/fault.h"
#include "xbar/geniex.h"
#include "xbar/variation.h"

namespace nvm::puma {
namespace {

TEST(QuantizeWeights, RoundTripWithinHalfStep) {
  Rng rng(1);
  Tensor w = Tensor::normal({8, 8}, 0, 0.3f, rng);
  for (std::int64_t bits : {4, 6, 8}) {
    QuantizedWeights q = quantize_weights(w, bits);
    for (std::int64_t i = 0; i < w.numel(); ++i) {
      EXPECT_LE(std::abs(q.q[i]), static_cast<float>(q.qmax));
      EXPECT_NEAR(q.q[i] * q.scale, w[i], q.scale * 0.5f + 1e-7f);
    }
  }
}

TEST(QuantizeWeights, ZeroTensorHandled) {
  Tensor w({3, 3});
  QuantizedWeights q = quantize_weights(w, 8);
  EXPECT_EQ(q.q.abs_max(), 0.0f);
  EXPECT_GT(q.scale, 0.0f);
}

TEST(QuantizeActivations, ClipsAndScales) {
  Tensor x({4}, {-0.1f, 0.0f, 0.5f, 2.0f});
  std::vector<std::int16_t> q = quantize_activations_i16(x, 1.0f, 4);
  EXPECT_EQ(q[0], 0);    // negative clipped
  EXPECT_EQ(q[2], 8);    // 0.5 * 15 = 7.5 -> 8
  EXPECT_EQ(q[3], 15);   // above-scale clipped to max
}

TEST(AdcQuantize, IdempotentAndMonotone) {
  const float fs = 1.0f;
  float prev = -1;
  for (float x = 0.0f; x <= 1.0f; x += 0.01f) {
    const float q = adc_quantize(x, fs, 6);
    EXPECT_EQ(adc_quantize(q, fs, 6), q);
    EXPECT_GE(q, prev);
    prev = q;
  }
  EXPECT_EQ(adc_quantize(-0.5f, fs, 6), 0.0f);
  EXPECT_EQ(adc_quantize(2.0f, fs, 6), 1.0f);
}

class BitSlicing : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(BitSlicing, ChunksReconstructValue) {
  const auto [value_bits, chunk_bits] = GetParam();
  const std::int64_t n_chunks = slice_count(value_bits, chunk_bits);
  Rng rng(3);
  const std::int64_t max_val = (std::int64_t{1} << value_bits) - 1;
  Tensor values({32});
  for (auto& v : values.data())
    v = static_cast<float>(rng.uniform_index(max_val + 1));
  Tensor recon({32});
  for (std::int64_t c = 0; c < n_chunks; ++c) {
    Tensor chunk({32});
    const float cmax =
        extract_chunk_into(values.data(), c, chunk_bits, chunk.data());
    EXPECT_EQ(cmax, chunk.max());
    EXPECT_LE(chunk.max(), static_cast<float>((1 << chunk_bits) - 1));
    recon.add_scaled(chunk, chunk_weight(c, chunk_bits));
  }
  EXPECT_EQ(max_abs_diff(recon, values), 0.0f);
}

INSTANTIATE_TEST_SUITE_P(Widths, BitSlicing,
                         ::testing::Values(std::pair{6, 3}, std::pair{8, 4},
                                           std::pair{7, 2}, std::pair{4, 1},
                                           std::pair{5, 5}));

TEST(BitSlicing, NegativeValueRejected) {
  Tensor v({1}, {-1.0f});
  Tensor out({1});
  EXPECT_THROW(extract_chunk_into(v.data(), 0, 2, out.data()), CheckError);
}

xbar::CrossbarConfig test_cfg() {
  xbar::CrossbarConfig cfg = xbar::xbar_32x32_100k();
  cfg.rows = cfg.cols = 16;
  return cfg;
}

struct TiledCase {
  std::int64_t m, k, n;
};

class TiledIdeal : public ::testing::TestWithParam<TiledCase> {};

// With an ideal crossbar model the tiled GEMM must reproduce the float
// GEMM up to weight/input/ADC quantization error.
TEST_P(TiledIdeal, ApproximatesFloatGemm) {
  const TiledCase p = GetParam();
  Rng rng(5);
  Tensor w = Tensor::normal({p.m, p.k}, 0, 0.2f, rng);
  Tensor x({p.k, p.n});
  for (auto& v : x.data())
    v = rng.bernoulli(0.4) ? 0.0f : static_cast<float>(rng.uniform(0, 1));

  auto model = std::make_shared<xbar::IdealXbarModel>(test_cfg());
  HwConfig hw;
  TiledMatrix tiled(w, model, hw);
  Tensor got = tiled.matmul(x);
  Tensor want = matmul(w, x);
  // Error budget: dominated by input/weight quantization.
  const float tol = 0.05f * want.abs_max() + 1e-4f;
  EXPECT_LT(max_abs_diff(got, want), tol)
      << p.m << "x" << p.k << "x" << p.n;
}

INSTANTIATE_TEST_SUITE_P(Shapes, TiledIdeal,
                         ::testing::Values(TiledCase{8, 12, 5},
                                           TiledCase{16, 16, 1},
                                           TiledCase{20, 40, 7},   // tiling both dims
                                           TiledCase{3, 100, 4},   // many row tiles
                                           TiledCase{33, 9, 2}));  // col tiles

TEST(Tiled, ZeroInputGivesZeroOutput) {
  Rng rng(6);
  Tensor w = Tensor::normal({4, 8}, 0, 1, rng);
  auto model = std::make_shared<xbar::IdealXbarModel>(test_cfg());
  TiledMatrix tiled(w, model, HwConfig{});
  Tensor out = tiled.matmul(Tensor({8, 3}));
  EXPECT_EQ(out.abs_max(), 0.0f);
}

TEST(Tiled, NegativeInputRejected) {
  Rng rng(7);
  Tensor w = Tensor::normal({4, 8}, 0, 1, rng);
  auto model = std::make_shared<xbar::IdealXbarModel>(test_cfg());
  TiledMatrix tiled(w, model, HwConfig{});
  Tensor x = Tensor::full({8, 2}, -0.5f);
  EXPECT_THROW(tiled.matmul(x), CheckError);
}

TEST(Tiled, SkipZeroTilesIsExactForIdealModel) {
  Rng rng(8);
  // All-positive weights: every negative-polarity slice is empty.
  Tensor w = Tensor::uniform({6, 10}, 0.01f, 0.5f, rng);
  Tensor x = Tensor::uniform({10, 4}, 0.0f, 1.0f, rng);
  auto model = std::make_shared<xbar::IdealXbarModel>(test_cfg());
  HwConfig skip;
  HwConfig noskip;
  noskip.skip_zero_tiles = false;
  Tensor a = TiledMatrix(w, model, skip).matmul(x, 1.0f);
  Tensor b = TiledMatrix(w, model, noskip).matmul(x, 1.0f);
  // The no-skip path still ADC-quantizes the baseline-only currents of the
  // empty tiles, so it carries extra quantization noise; the skip path is
  // exactly zero there. They agree up to that ADC noise floor.
  EXPECT_LT(max_abs_diff(a, b), 0.03f * b.abs_max() + 1e-4f);
  EXPECT_LT(TiledMatrix(w, model, skip).programmed_tiles(),
            TiledMatrix(w, model, noskip).programmed_tiles());
}

TEST(Tiled, FixedInputScaleClipsAbove) {
  Rng rng(9);
  Tensor w = Tensor::uniform({2, 4}, 0.1f, 0.5f, rng);
  auto model = std::make_shared<xbar::IdealXbarModel>(test_cfg());
  TiledMatrix tiled(w, model, HwConfig{});
  Tensor x = Tensor::full({4, 1}, 2.0f);   // above the fixed scale
  Tensor clipped_in = Tensor::full({4, 1}, 1.0f);
  Tensor got = tiled.matmul(x, 1.0f);
  Tensor want = tiled.matmul(clipped_in, 1.0f);
  EXPECT_LT(max_abs_diff(got, want), 1e-6f);
}

TEST(Tiled, SliceBitsMustFitDeviceLevels) {
  xbar::CrossbarConfig cfg = test_cfg();
  cfg.levels = 4;  // 2 bits per device
  auto model = std::make_shared<xbar::IdealXbarModel>(cfg);
  HwConfig hw;
  hw.slice_bits = 3;
  Rng rng(10);
  Tensor w = Tensor::normal({2, 2}, 0, 1, rng);
  EXPECT_THROW(TiledMatrix(w, model, hw), CheckError);
}

TEST(Tiled, BitWidthsMustFitIntegerCodes) {
  // DAC and weight chunks travel as int8 codes, activation codes as int16.
  xbar::CrossbarConfig cfg = test_cfg();
  cfg.levels = 256;
  auto model = std::make_shared<xbar::IdealXbarModel>(cfg);
  Rng rng(11);
  Tensor w = Tensor::normal({2, 2}, 0, 1, rng);
  HwConfig wide_stream;
  wide_stream.stream_bits = 8;
  EXPECT_THROW(TiledMatrix(w, model, wide_stream), CheckError);
  HwConfig wide_slice;
  wide_slice.weight_bits = 9;
  wide_slice.slice_bits = 8;
  EXPECT_THROW(TiledMatrix(w, model, wide_slice), CheckError);
  HwConfig wide_input;
  wide_input.input_bits = 16;
  EXPECT_THROW(TiledMatrix(w, model, wide_input), CheckError);
  HwConfig widest;  // the widest accepted codes
  widest.weight_bits = 8;
  widest.slice_bits = 7;
  widest.input_bits = 15;
  widest.stream_bits = 7;
  EXPECT_NO_THROW(TiledMatrix(w, model, widest));
}

TEST(HwConfig, SliceAndStreamCounts) {
  HwConfig hw;
  hw.weight_bits = 7;
  hw.slice_bits = 3;
  hw.input_bits = 6;
  hw.stream_bits = 3;
  EXPECT_EQ(hw.weight_slices(), 2);  // 6 magnitude bits / 3
  EXPECT_EQ(hw.input_streams(), 2);
  hw.slice_bits = 4;
  EXPECT_EQ(hw.weight_slices(), 2);  // ceil(6/4)
}

TEST(Engine, ProgramsLazilyAndDetectsWeightMutation) {
  Rng rng(11);
  auto model = std::make_shared<xbar::IdealXbarModel>(test_cfg());
  CrossbarMvmEngine engine(model, HwConfig{}, 1.0f);
  EXPECT_EQ(engine.programmed_tiles(), 0);
  Tensor w = Tensor::uniform({4, 6}, -0.5f, 0.5f, rng);
  Tensor x = Tensor::uniform({6, 2}, 0.0f, 1.0f, rng);
  (void)engine.matmul(w, x);
  EXPECT_GT(engine.programmed_tiles(), 0);
  w[0] += 1.0f;  // same storage, changed contents
  EXPECT_THROW(engine.matmul(w, x), CheckError);
}

TEST(Engine, RecordingEngineTracksMaxInput) {
  RecordingMvmEngine rec;
  Rng rng(12);
  Tensor w = Tensor::normal({2, 3}, 0, 1, rng);
  (void)rec.matmul(w, Tensor({3, 1}, {0.1f, 0.9f, 0.3f}));
  (void)rec.matmul(w, Tensor({3, 1}, {0.2f, 0.4f, 0.5f}));
  EXPECT_EQ(rec.max_input(), 0.9f);
}

TEST(Engine, GainTrimNearUnityForIdealModel) {
  Rng rng(13);
  auto model = std::make_shared<xbar::IdealXbarModel>(test_cfg());
  CrossbarMvmEngine engine(model, HwConfig{}, 1.0f);
  Tensor w = Tensor::uniform({4, 6}, -0.5f, 0.5f, rng);
  engine.begin_gain_calibration();
  for (int i = 0; i < 4; ++i) {
    Tensor x = Tensor::uniform({6, 3}, 0.0f, 1.0f, rng);
    (void)engine.matmul(w, x);
  }
  engine.finish_gain_calibration();
  EXPECT_NEAR(engine.output_gain(), 1.0f, 0.02f);
}

TEST(Engine, GainTrimCompensatesFastNoiseLoss) {
  Rng rng(14);
  auto model = std::make_shared<xbar::FastNoiseModel>(test_cfg());
  CrossbarMvmEngine engine(model, HwConfig{}, 1.0f);
  Tensor w = Tensor::uniform({4, 6}, 0.05f, 0.5f, rng);
  engine.begin_gain_calibration();
  for (int i = 0; i < 4; ++i) {
    Tensor x = Tensor::uniform({6, 3}, 0.2f, 1.0f, rng);
    (void)engine.matmul(w, x);
  }
  engine.finish_gain_calibration();
  // Parasitic current loss -> fitted digital gain above unity.
  EXPECT_GT(engine.output_gain(), 1.0f);
  EXPECT_LT(engine.output_gain(), 2.0f);
}

// ---------------------------------------------------------------------------
// Fused vs unfused tile slots
// ---------------------------------------------------------------------------

/// Forwards every evaluation virtual to the wrapped crossbar but not
/// compile_chunk_kernel, so a TiledMatrix over it runs every slot through
/// the tile's stream: the reference the fused kernels must match.
class UnfusedXbar final : public xbar::ProgrammedXbar {
 public:
  explicit UnfusedXbar(std::unique_ptr<xbar::ProgrammedXbar> inner)
      : inner_(std::move(inner)) {}
  Tensor mvm(const Tensor& v) override { return inner_->mvm(v); }
  Tensor mvm_batch(const Tensor& v) override { return inner_->mvm_batch(v); }
  Tensor mvm_batch_active(const Tensor& v, std::int64_t rows_used,
                          std::int64_t cols_used) override {
    return inner_->mvm_batch_active(v, rows_used, cols_used);
  }
  Tensor mvm_multi(const Tensor& v) override { return inner_->mvm_multi(v); }
  Tensor mvm_multi_active(const Tensor& v, std::int64_t rows_used,
                          std::int64_t cols_used) override {
    return inner_->mvm_multi_active(v, rows_used, cols_used);
  }
  Tensor mvm_chunks_active(const xbar::ChunkBlock& cb, std::int64_t rows_used,
                           std::int64_t cols_used) override {
    return inner_->mvm_chunks_active(cb, rows_used, cols_used);
  }
  std::unique_ptr<xbar::XbarStream> open_stream() override {
    return inner_->open_stream();
  }

 private:
  std::unique_ptr<xbar::ProgrammedXbar> inner_;
};

class UnfusedModel final : public xbar::MvmModel {
 public:
  explicit UnfusedModel(std::shared_ptr<const xbar::MvmModel> inner)
      : inner_(std::move(inner)) {}
  std::unique_ptr<xbar::ProgrammedXbar> program(
      const Tensor& g) const override {
    return std::make_unique<UnfusedXbar>(inner_->program(g));
  }
  const xbar::CrossbarConfig& config() const override {
    return inner_->config();
  }
  std::string name() const override { return inner_->name(); }
  bool is_ideal() const override { return inner_->is_ideal(); }

 private:
  std::shared_ptr<const xbar::MvmModel> inner_;
};

std::vector<simd::Isa> test_isas() {
  std::vector<simd::Isa> isas{simd::Isa::Scalar};
  for (simd::Isa isa :
       {simd::Isa::Avx2, simd::Isa::Avx512, simd::Isa::Neon})
    if (simd::isa_usable(isa)) isas.push_back(isa);
  return isas;
}

/// The GENIEx surrogate for `cfg`, trained once per config in this binary
/// (bit-identity only needs *a* deterministic surrogate).
const xbar::GeniexFit& fit_for(const xbar::CrossbarConfig& cfg) {
  static std::vector<std::pair<std::string, std::unique_ptr<xbar::GeniexFit>>>
      fits;
  for (const auto& [name, fit] : fits)
    if (name == cfg.name) return *fit;
  xbar::GeniexTrainOptions opt;
  opt.solver_samples = 80;
  fits.emplace_back(cfg.name, std::make_unique<xbar::GeniexFit>(
                                  xbar::GeniexModel::fit(cfg, opt)));
  return *fits.back().second;
}

struct GemmCase {
  Tensor w, x;
};

GemmCase gemm_case(std::uint64_t seed) {
  Rng rng(seed);
  GemmCase c{Tensor::normal({20, 18}, 0.0f, 0.4f, rng), Tensor({18, 5})};
  for (std::int64_t i = 0; i < c.x.numel(); ++i)
    c.x[i] = static_cast<float>(rng.uniform(0.0, 1.0));
  return c;
}

/// Backends x wrappers. Bare and fault-wrapped fast_noise compile fused
/// kernels; GENIEx, variation(fast_noise) (its tiles are fast-noise too)
/// and fault(ideal) cover the remaining routes with ideal's int-digital
/// path: every slot kind is exercised.
std::vector<std::pair<std::string, std::shared_ptr<const xbar::MvmModel>>>
backend_matrix() {
  const xbar::CrossbarConfig cfg = test_cfg();
  auto ideal = std::make_shared<xbar::IdealXbarModel>(cfg);
  auto fast = std::make_shared<xbar::FastNoiseModel>(cfg);
  auto geniex = std::make_shared<xbar::GeniexModel>(cfg, fit_for(cfg).mlp);
  xbar::FaultOptions fo;
  fo.stuck_on_rate = 0.05;
  fo.stuck_off_rate = 0.05;
  return {
      {"ideal", ideal},
      {"fast_noise", fast},
      {"geniex", geniex},
      {"fault(fast_noise)", std::make_shared<xbar::FaultModel>(fast, fo)},
      {"variation(fast_noise)",
       std::make_shared<xbar::VariationModel>(fast,
                                              xbar::VariationOptions{})},
      {"fault(ideal)", std::make_shared<xbar::FaultModel>(ideal, fo)},
  };
}

TEST(FusedSlots, BitIdenticalToUnfusedAcrossMatrix) {
  const GemmCase c = gemm_case(71);
  for (auto& [tag, model] : backend_matrix()) {
    Tensor ref;
    {
      simd::ScopedIsaForTests scope(simd::Isa::Scalar);
      ThreadPool serial(1);
      ThreadPool::ScopedUse use(serial);
      TiledMatrix unfused(c.w, std::make_shared<UnfusedModel>(model),
                          HwConfig{});
      ref = unfused.matmul(c.x, 0.0f);
    }
    ASSERT_GT(ref.abs_max(), 0.0f) << tag;
    TiledMatrix fused(c.w, model, HwConfig{});
    for (simd::Isa isa : test_isas()) {
      simd::ScopedIsaForTests scope(isa);
      for (std::size_t threads : {1u, 4u}) {
        ThreadPool pool(threads);
        ThreadPool::ScopedUse use(pool);
        Tensor out = fused.matmul(c.x, 0.0f);
        ASSERT_EQ(out.numel(), ref.numel());
        for (std::int64_t i = 0; i < out.numel(); ++i)
          EXPECT_EQ(out[i], ref[i])
              << tag << " isa=" << simd::isa_name(isa)
              << " threads=" << threads << " i=" << i;
      }
    }
  }
}

TEST(FusedSlots, KernelsEngageForFastNoiseAndStayBitIdentical) {
  const GemmCase c = gemm_case(72);
  metrics::Counter& fused_slots = metrics::counter("puma/tiled/fused_slots");
  metrics::Counter& fused_runs = metrics::counter("puma/tiled/fused_runs");
  xbar::FaultOptions fo;
  fo.stuck_on_rate = 0.05;
  auto fast = std::make_shared<xbar::FastNoiseModel>(test_cfg());
  for (const std::shared_ptr<const xbar::MvmModel>& model :
       {std::static_pointer_cast<const xbar::MvmModel>(fast),
        std::static_pointer_cast<const xbar::MvmModel>(
            std::make_shared<xbar::FaultModel>(fast, fo))}) {
    std::uint64_t before = fused_slots.value();
    TiledMatrix unfused(c.w, std::make_shared<UnfusedModel>(model),
                        HwConfig{});
    EXPECT_EQ(fused_slots.value(), before) << model->name();
    TiledMatrix fused(c.w, model, HwConfig{});
    EXPECT_EQ(fused_slots.value() - before,
              static_cast<std::uint64_t>(fused.programmed_tiles()))
        << model->name() << ": every fast-noise tile has a fused kernel";

    before = fused_runs.value();
    const Tensor ref = unfused.matmul(c.x, 0.0f);
    EXPECT_EQ(fused_runs.value(), before) << model->name();
    const Tensor out = fused.matmul(c.x, 0.0f);
    EXPECT_GT(fused_runs.value(), before)
        << model->name() << ": fused path did not engage";
    for (std::int64_t i = 0; i < out.numel(); ++i)
      EXPECT_EQ(out[i], ref[i]) << model->name() << " i=" << i;
  }
}

/// Same geometry as test_cfg(), different R_ON: the ADC shift factors
/// differ (dot_unit scales with the conductance range).
xbar::CrossbarConfig test_cfg_300k() {
  xbar::CrossbarConfig cfg = xbar::xbar_64x64_300k();
  cfg.rows = cfg.cols = 16;
  cfg.name = "16x16_300k_test";
  return cfg;
}

TEST(Tiled, SameGeometryConfigsIdenticalInEitherBuildOrder) {
  // Regression: execution plans once round-tripped their ADC shifts
  // through a cache keyed without R_ON, so whichever config was built
  // second adopted the first one's shifts. Every output must depend on
  // its own config only, whatever was built before it.
  const GemmCase c = gemm_case(75);
  using ModelPair = std::pair<std::shared_ptr<const xbar::MvmModel>,
                              std::shared_ptr<const xbar::MvmModel>>;
  const xbar::CrossbarConfig cfg100 = test_cfg(), cfg300 = test_cfg_300k();
  const std::vector<std::pair<std::string, ModelPair>> families = {
      {"fast_noise",
       {std::make_shared<xbar::FastNoiseModel>(cfg100),
        std::make_shared<xbar::FastNoiseModel>(cfg300)}},
      {"geniex",
       {std::make_shared<xbar::GeniexModel>(cfg100, fit_for(cfg100).mlp),
        std::make_shared<xbar::GeniexModel>(cfg300, fit_for(cfg300).mlp)}},
  };
  for (const auto& [tag, models] : families) {
    const auto& [m100, m300] = models;
    auto run = [&](const std::shared_ptr<const xbar::MvmModel>& model) {
      return TiledMatrix(c.w, model, HwConfig{}).matmul(c.x, 0.0f);
    };
    const Tensor a100 = run(m100);
    const Tensor a300 = run(m300);
    const Tensor b300 = run(m300);
    const Tensor b100 = run(m100);
    EXPECT_GT(max_abs_diff(a100, a300), 0.0f)
        << tag << ": the two configs must give different outputs";
    for (std::int64_t i = 0; i < a100.numel(); ++i) {
      ASSERT_EQ(a100[i], b100[i]) << tag << " 100k i=" << i;
      ASSERT_EQ(a300[i], b300[i]) << tag << " 300k i=" << i;
    }
  }
}

}  // namespace
}  // namespace nvm::puma
