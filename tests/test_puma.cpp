// Quantization, bit-slicing, tiled crossbar GEMM, and engine tests.
#include <gtest/gtest.h>

#include <cmath>

#include "common/check.h"

#include <cmath>

#include "puma/bit_slicing.h"
#include "puma/engine.h"
#include "puma/quantize.h"
#include "tensor/ops.h"
#include "xbar/fast_noise.h"

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
  Tensor q = quantize_activations(x, 1.0f, 4);
  EXPECT_EQ(q[0], 0.0f);    // negative clipped
  EXPECT_EQ(q[2], 8.0f);    // 0.5 * 15 = 7.5 -> 8
  EXPECT_EQ(q[3], 15.0f);   // above-scale clipped to max
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

}  // namespace
}  // namespace nvm::puma
