// Cross-module property tests: quantization-error scaling laws, attack
// monotonicity, determinism guarantees, and cost-model invariants.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "core/tasks.h"

#include "attack/ensemble_bb.h"
#include "attack/pgd.h"
#include "attack/square.h"
#include "nn/loss.h"
#include "nn/linear.h"
#include "nn/pool.h"
#include "puma/cost_model.h"
#include "puma/tiled_mvm.h"
#include "tensor/ops.h"
#include "xbar/geniex.h"

namespace nvm {
namespace {

xbar::CrossbarConfig cfg16() {
  xbar::CrossbarConfig cfg = xbar::xbar_32x32_100k();
  cfg.rows = cfg.cols = 16;
  cfg.levels = 256;  // allow wide slices in the sweep
  return cfg;
}

/// RMS error of the tiled GEMM vs the float GEMM, for one mapping config.
float tiled_rms_error(const puma::HwConfig& hw, std::uint64_t seed) {
  Rng rng(seed);
  Tensor w = Tensor::normal({12, 20}, 0, 0.2f, rng);
  Tensor x({20, 8});
  for (auto& v : x.data())
    v = rng.bernoulli(0.4) ? 0.0f : static_cast<float>(rng.uniform(0, 1));
  auto model = std::make_shared<xbar::IdealXbarModel>(cfg16());
  puma::TiledMatrix tiled(w, model, hw);
  Tensor got = tiled.matmul(x, 1.0f);
  Tensor want = matmul(w, x);
  double se = 0;
  for (std::int64_t i = 0; i < got.numel(); ++i) {
    const double d = got[i] - want[i];
    se += d * d;
  }
  return static_cast<float>(
      std::sqrt(se / static_cast<double>(got.numel())));
}

// Property: more weight bits -> monotonically smaller mapping error
// (averaged over seeds; ideal crossbar isolates quantization).
TEST(MappingError, ShrinksWithWeightBits) {
  float prev = 1e9f;
  for (std::int64_t bits : {4, 6, 8}) {
    puma::HwConfig hw;
    hw.weight_bits = bits;
    hw.slice_bits = 4;
    hw.adc_bits = 14;   // keep ADC out of the comparison
    hw.input_bits = 10;
    hw.stream_bits = 5;
    float err = 0;
    for (std::uint64_t seed = 1; seed <= 4; ++seed)
      err += tiled_rms_error(hw, seed);
    EXPECT_LT(err, prev) << "weight_bits=" << bits;
    prev = err;
  }
}

TEST(MappingError, ShrinksWithInputBits) {
  float prev = 1e9f;
  for (std::int64_t bits : {3, 6, 9}) {
    puma::HwConfig hw;
    hw.input_bits = bits;
    hw.stream_bits = 3;
    hw.adc_bits = 14;
    float err = 0;
    for (std::uint64_t seed = 1; seed <= 4; ++seed)
      err += tiled_rms_error(hw, seed);
    EXPECT_LT(err, prev) << "input_bits=" << bits;
    prev = err;
  }
}

TEST(MappingError, ShrinksWithAdcBits) {
  float prev = 1e9f;
  for (std::int64_t bits : {6, 9, 12}) {
    puma::HwConfig hw;
    hw.adc_bits = bits;
    float err = 0;
    for (std::uint64_t seed = 1; seed <= 4; ++seed)
      err += tiled_rms_error(hw, seed);
    EXPECT_LE(err, prev * 1.02f) << "adc_bits=" << bits;
    prev = err;
  }
}

// Property: slicing configuration must not change the *value* computed on
// ideal hardware (only the decomposition changes), up to ADC noise.
TEST(MappingError, SliceDecompositionInvariant) {
  puma::HwConfig one_slice;
  one_slice.slice_bits = 6;
  one_slice.adc_bits = 14;
  puma::HwConfig two_slices;
  two_slices.slice_bits = 3;
  two_slices.adc_bits = 14;
  Rng rng(9);
  Tensor w = Tensor::normal({10, 14}, 0, 0.2f, rng);
  Tensor x = Tensor::uniform({14, 6}, 0.0f, 1.0f, rng);
  auto model = std::make_shared<xbar::IdealXbarModel>(cfg16());
  Tensor a = puma::TiledMatrix(w, model, one_slice).matmul(x, 1.0f);
  Tensor b = puma::TiledMatrix(w, model, two_slices).matmul(x, 1.0f);
  EXPECT_LT(max_abs_diff(a, b), 0.02f * b.abs_max() + 1e-4f);
}

/// Two-class linear model for attack monotonicity checks.
class HalfPlaneModel final : public attack::AttackModel {
 public:
  explicit HalfPlaneModel(std::int64_t dims) : dims_(dims) {}
  Tensor logits(const Tensor& x) override {
    double s = 0;
    const std::int64_t half = dims_ / 2;
    for (std::int64_t i = 0; i < dims_; ++i)
      s += (i < half ? 1.0 : -1.0) * x[i];
    Tensor out({2});
    out[0] = static_cast<float>(s);
    out[1] = static_cast<float>(-s);
    return out;
  }
  Tensor loss_input_grad(const Tensor& x, std::int64_t label,
                         float* loss_out) override {
    Tensor out = logits(x);
    nn::LossGrad lg = nn::cross_entropy(out, label);
    if (loss_out != nullptr) *loss_out = lg.loss;
    Tensor g(x.shape());
    const std::int64_t half = dims_ / 2;
    for (std::int64_t i = 0; i < dims_; ++i)
      g[i] = (lg.grad_logits[0] - lg.grad_logits[1]) * (i < half ? 1.f : -1.f);
    return g;
  }

 private:
  std::int64_t dims_;
};

// Property: PGD loss is non-decreasing in epsilon on a convex (linear)
// victim.
TEST(AttackProperty, PgdLossMonotoneInEpsilon) {
  HalfPlaneModel model(3 * 4 * 4);
  Rng rng(5);
  Tensor x = Tensor::uniform({3, 4, 4}, 0.3f, 0.7f, rng);
  float prev_loss = -1.0f;
  for (float eps : {0.01f, 0.03f, 0.06f, 0.1f}) {
    attack::PgdOptions opt;
    opt.epsilon = eps;
    opt.iters = 10;
    opt.random_start = false;
    Tensor adv = attack::pgd_attack(model, x, 0, opt);
    float loss = 0;
    (void)model.loss_input_grad(adv, 0, &loss);
    EXPECT_GE(loss, prev_loss - 1e-5f) << "eps=" << eps;
    prev_loss = loss;
  }
}

// Property: on a linear victim, PGD lands exactly on the epsilon-ball
// face selected by the gradient sign (the optimum of a linear objective
// over a box is a corner).
TEST(AttackProperty, PgdReachesBallCornerOnLinearModel) {
  HalfPlaneModel model(3 * 4 * 4);
  Tensor x = Tensor::full({3, 4, 4}, 0.5f);
  attack::PgdOptions opt;
  opt.epsilon = 0.07f;
  opt.iters = 8;
  opt.random_start = false;
  Tensor adv = attack::pgd_attack(model, x, 0, opt);
  for (std::int64_t i = 0; i < adv.numel(); ++i)
    EXPECT_NEAR(std::abs(adv[i] - x[i]), opt.epsilon, 1e-5f);
}

TEST(AttackProperty, SquareDeterministicForSeed) {
  HalfPlaneModel model(3 * 6 * 6);
  Rng rng(6);
  Tensor x = Tensor::uniform({3, 6, 6}, 0.2f, 0.8f, rng);
  attack::SquareOptions opt;
  opt.epsilon = 0.05f;
  opt.max_queries = 60;
  attack::SquareResult a = attack::square_attack(model, x, 0, opt);
  attack::SquareResult b = attack::square_attack(model, x, 0, opt);
  EXPECT_EQ(max_abs_diff(a.adv, b.adv), 0.0f);
  EXPECT_EQ(a.queries_used, b.queries_used);
}

TEST(AttackProperty, PgdDeterministicForSeed) {
  HalfPlaneModel model(3 * 4 * 4);
  Rng rng(7);
  Tensor x = Tensor::uniform({3, 4, 4}, 0.2f, 0.8f, rng);
  attack::PgdOptions opt;
  opt.epsilon = 0.05f;
  opt.iters = 5;
  Tensor a = attack::pgd_attack(model, x, 0, opt);
  Tensor b = attack::pgd_attack(model, x, 0, opt);
  EXPECT_EQ(max_abs_diff(a, b), 0.0f);
}

// Cost model invariant: a GEMM that exactly fills one crossbar reports
// 100% utilization and rows*... conversions consistent with shape.
TEST(CostModelProperty, ExactFitFullUtilization) {
  // Build a "network" of one Linear layer sized exactly to the crossbar.
  Rng rng(8);
  auto cfg = xbar::xbar_64x64_100k();
  nn::Sequential* seq = new nn::Sequential();
  seq->emplace<nn::Flatten>();
  seq->emplace<nn::Linear>(cfg.rows, cfg.cols, rng);
  nn::Network net("exactfit", std::unique_ptr<nn::Sequential>(seq),
                  cfg.cols);
  Tensor sample({cfg.rows});
  puma::CostReport report =
      puma::estimate_cost(net, sample, cfg, puma::HwConfig{});
  ASSERT_EQ(report.layers.size(), 1u);
  EXPECT_NEAR(report.layers[0].utilization, 1.0, 1e-9);
  EXPECT_EQ(report.layers[0].row_tiles, 1);
  EXPECT_EQ(report.layers[0].col_tiles, 1);
  // passes = 2 polarities x 2 slices x 2 streams, one input vector.
  EXPECT_EQ(report.layers[0].crossbar_reads, 8);
}

TEST(SoftmaxProperty, ShiftInvariance) {
  Rng rng(10);
  for (int t = 0; t < 10; ++t) {
    Tensor logits = Tensor::normal({7}, 0, 3, rng);
    Tensor shifted = logits;
    shifted += 42.0f;
    EXPECT_LT(max_abs_diff(nn::softmax(logits), nn::softmax(shifted)), 1e-5f);
  }
}

TEST(RngProperty, UniformIndexOfOneIsZero) {
  Rng rng(11);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.uniform_index(1), 0u);
}

// ---------------------------------------------------------------------------
// File-cache tags cover every input of the cached value
// ---------------------------------------------------------------------------

/// Applies each named perturbation to a copy of `base` and expects the
/// tag to move.
template <typename T, typename TagFn>
void expect_every_field_keyed(
    const T& base, const TagFn& tag,
    const std::vector<std::pair<const char*, std::function<void(T&)>>>&
        perturbations) {
  const std::string base_tag = tag(base);
  for (const auto& [field, perturb] : perturbations) {
    T changed = base;
    perturb(changed);
    EXPECT_NE(tag(changed), base_tag) << field << " is not in the tag";
  }
}

TEST(CacheKey, GeniexTagCoversConfigAndTrainOptions) {
  // Left out on purpose: cfg.name (the file name geniex_<name>.bin carries
  // it), solver.warm_start_streams (the fit runs cold solves only) and
  // solver.ordering (red-black and lexicographic are bit-identical).
  struct Inputs {
    xbar::CrossbarConfig cfg = xbar::xbar_64x64_100k();
    xbar::GeniexTrainOptions opt;
  };
  using P = std::function<void(Inputs&)>;
  expect_every_field_keyed<Inputs>(
      Inputs{},
      [](const Inputs& in) { return xbar::geniex_cache_tag(in.cfg, in.opt); },
      {
          {"cfg.rows", P([](Inputs& in) { in.cfg.rows = 32; })},
          {"cfg.cols", P([](Inputs& in) { in.cfg.cols = 32; })},
          {"cfg.r_on", P([](Inputs& in) { in.cfg.r_on *= 3; })},
          {"cfg.on_off_ratio", P([](Inputs& in) { in.cfg.on_off_ratio += 5; })},
          {"cfg.levels", P([](Inputs& in) { in.cfg.levels = 8; })},
          {"cfg.r_source", P([](Inputs& in) { in.cfg.r_source += 50; })},
          {"cfg.r_sink", P([](Inputs& in) { in.cfg.r_sink += 50; })},
          {"cfg.r_wire", P([](Inputs& in) { in.cfg.r_wire *= 2; })},
          {"cfg.v_read", P([](Inputs& in) { in.cfg.v_read *= 2; })},
          {"cfg.device_nonlin",
           P([](Inputs& in) { in.cfg.device_nonlin += 1; })},
          {"opt.solver_samples",
           P([](Inputs& in) { in.opt.solver_samples += 1; })},
          {"opt.hidden", P([](Inputs& in) { in.opt.hidden += 1; })},
          {"opt.seed", P([](Inputs& in) { in.opt.seed += 1; })},
          {"opt.mlp.epochs", P([](Inputs& in) { in.opt.mlp.epochs += 1; })},
          {"opt.mlp.batch", P([](Inputs& in) { in.opt.mlp.batch += 1; })},
          {"opt.mlp.lr", P([](Inputs& in) { in.opt.mlp.lr *= 2; })},
          {"opt.mlp.seed", P([](Inputs& in) { in.opt.mlp.seed += 1; })},
          {"opt.solver.tol", P([](Inputs& in) { in.opt.solver.tol *= 10; })},
          {"opt.solver.max_sweeps",
           P([](Inputs& in) { in.opt.solver.max_sweeps += 1; })},
          {"opt.solver.coarse_start",
           P([](Inputs& in) {
             in.opt.solver.coarse_start = !in.opt.solver.coarse_start;
           })},
          {"opt.solver.relaxation",
           P([](Inputs& in) { in.opt.solver.relaxation = 0.5; })},
          {"opt.solver.retry_on_nonconvergence",
           P([](Inputs& in) {
             in.opt.solver.retry_on_nonconvergence =
                 !in.opt.solver.retry_on_nonconvergence;
           })},
      });
}

TEST(CacheKey, ModelTagCoversDataAndTraining) {
  // Left out on purpose: task.name (the file name model_<name>.bin carries
  // it), data_spec.name (the generator does not read it),
  // data_spec.test_count (the held-out split, never trained on),
  // train_config.verbose (logging only) and the attack-side fields
  // (attack/adaptive eval counts, eps_scale), which never reach training.
  // The architecture arrives as the network's arch() string.
  using P = std::function<void(core::Task&)>;
  expect_every_field_keyed<core::Task>(
      core::task_scifar10(),
      [](const core::Task& t) { return core::model_cache_tag(t, "resnet20"); },
      {
          {"data_spec.classes",
           P([](core::Task& t) { t.data_spec.classes += 1; })},
          {"data_spec.image_size",
           P([](core::Task& t) { t.data_spec.image_size += 4; })},
          {"data_spec.train_count",
           P([](core::Task& t) { t.data_spec.train_count += 1; })},
          {"data_spec.seed", P([](core::Task& t) { t.data_spec.seed += 1; })},
          {"data_spec.noise", P([](core::Task& t) { t.data_spec.noise *= 2; })},
          {"train_config.epochs",
           P([](core::Task& t) { t.train_config.epochs += 1; })},
          {"train_config.batch_size",
           P([](core::Task& t) { t.train_config.batch_size += 1; })},
          {"train_config.sgd.lr",
           P([](core::Task& t) { t.train_config.sgd.lr *= 2; })},
          {"train_config.sgd.momentum",
           P([](core::Task& t) { t.train_config.sgd.momentum = 0.5f; })},
          {"train_config.sgd.weight_decay",
           P([](core::Task& t) { t.train_config.sgd.weight_decay *= 2; })},
          {"train_config.lr_decay",
           P([](core::Task& t) { t.train_config.lr_decay *= 2; })},
          {"train_config.bn_freeze_frac",
           P([](core::Task& t) { t.train_config.bn_freeze_frac = 1.0f; })},
          {"train_config.seed",
           P([](core::Task& t) { t.train_config.seed += 1; })},
      });
  const core::Task t = core::task_scifar10();
  EXPECT_NE(core::model_cache_tag(t, "resnet20"),
            core::model_cache_tag(t, "resnet32"));
}

TEST(CacheKey, SurrogateTagCoversEveryOption) {
  // The victim and the query images are named by the caller's cache key;
  // the tag covers the options and the query and class counts.
  struct Inputs {
    attack::EnsembleBbOptions opt;
    std::size_t n_images = 64;
    std::int64_t classes = 10;
  };
  using P = std::function<void(Inputs&)>;
  expect_every_field_keyed<Inputs>(
      Inputs{},
      [](const Inputs& in) {
        return attack::surrogate_cache_tag(in.opt, in.n_images, in.classes);
      },
      {
          {"n_images", P([](Inputs& in) { in.n_images += 1; })},
          {"num_classes", P([](Inputs& in) { in.classes += 1; })},
          {"opt.depths", P([](Inputs& in) { in.opt.depths.push_back(4); })},
          {"opt.widths", P([](Inputs& in) { in.opt.widths[1] += 1; })},
          {"opt.epochs", P([](Inputs& in) { in.opt.epochs += 1; })},
          {"opt.batch", P([](Inputs& in) { in.opt.batch += 1; })},
          {"opt.lr", P([](Inputs& in) { in.opt.lr *= 2; })},
          {"opt.momentum", P([](Inputs& in) { in.opt.momentum = 0.5f; })},
          {"opt.seed", P([](Inputs& in) { in.opt.seed += 1; })},
      });
}

}  // namespace
}  // namespace nvm
