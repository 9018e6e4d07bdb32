// Deployment-semantics tests: compensation paths, state restoration under
// every option combination, and interaction with defenses.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "common/check.h"
#include "common/thread_pool.h"

#include "core/evaluator.h"
#include "defense/defenses.h"
#include "nn/resnet.h"
#include "nn/trainer.h"
#include "puma/hw_network.h"
#include "test_util.h"
#include "xbar/circuit_solver.h"
#include "xbar/fast_noise.h"
#include "xbar/fault.h"
#include "xbar/geniex.h"
#include "xbar/variation.h"

namespace nvm {
namespace {

struct Fixture {
  std::vector<Tensor> images;
  std::vector<std::int64_t> labels;
  nn::Network net;
  std::shared_ptr<xbar::FastNoiseModel> model;
};

Fixture& fixture() {
  static Fixture* f = [] {
    Rng rng(61);
    auto* fx = new Fixture{{}, {}, [] {
                             Rng r(62);
                             nn::ResnetCifarSpec spec;
                             spec.blocks_per_stage = 1;
                             spec.widths = {4, 8, 8};
                             spec.num_classes = 2;
                             return nn::make_resnet_cifar(spec, r);
                           }(),
                           nullptr};
    testutil::make_orientation_toy(fx->images, fx->labels, 40, rng);
    nn::train(fx->net, fx->images, fx->labels, testutil::toy_train_config());
    // FastNoise (not GENIEx) keeps these tests fast and fit-free.
    fx->model = std::make_shared<xbar::FastNoiseModel>(xbar::xbar_32x32_100k());
    return fx;
  }();
  return *f;
}

std::vector<Tensor> calib() {
  Fixture& f = fixture();
  return {f.images.begin(), f.images.begin() + 6};
}

TEST(HwSemantics, GainTrimReportsPerLayerGains) {
  Fixture& f = fixture();
  puma::HwConfig hw;
  hw.gain_trim = true;
  puma::HwDeployment dep(f.net, f.model, calib(), hw);
  ASSERT_EQ(dep.stats().output_gains.size(),
            static_cast<std::size_t>(dep.stats().mvm_layers));
  for (float g : dep.stats().output_gains) {
    EXPECT_GE(g, 0.5f);
    EXPECT_LE(g, 2.0f);
  }
}

TEST(HwSemantics, GainTrimImprovesAgreementWithDigital) {
  Fixture& f = fixture();
  Tensor x = f.images[3];
  Tensor digital = f.net.forward(x, nn::Mode::Eval);
  float err_plain, err_trim;
  {
    puma::HwDeployment dep(f.net, f.model, calib());
    err_plain = max_abs_diff(f.net.forward(x, nn::Mode::Eval), digital);
  }
  {
    puma::HwConfig hw;
    hw.gain_trim = true;
    puma::HwDeployment dep(f.net, f.model, calib(), hw);
    err_trim = max_abs_diff(f.net.forward(x, nn::Mode::Eval), digital);
  }
  EXPECT_LT(err_trim, err_plain);
}

class RestoreUnderOptions
    : public ::testing::TestWithParam<std::pair<bool, bool>> {};

TEST_P(RestoreUnderOptions, DeploymentAlwaysRestoresExactly) {
  const auto [trim, reest] = GetParam();
  Fixture& f = fixture();
  Tensor x = f.images[5];
  Tensor before = f.net.forward(x, nn::Mode::Eval);
  {
    puma::HwConfig hw;
    hw.gain_trim = trim;
    hw.bn_reestimate = reest;
    puma::HwDeployment dep(f.net, f.model, calib(), hw);
    (void)f.net.forward(x, nn::Mode::Eval);
  }
  Tensor after = f.net.forward(x, nn::Mode::Eval);
  EXPECT_EQ(max_abs_diff(before, after), 0.0f)
      << "trim=" << trim << " reest=" << reest;
}

INSTANTIATE_TEST_SUITE_P(OptionGrid, RestoreUnderOptions,
                         ::testing::Values(std::pair{false, false},
                                           std::pair{true, false},
                                           std::pair{false, true},
                                           std::pair{true, true}));

TEST(HwSemantics, BnReestimationChangesRunningStatsDuringDeployment) {
  Fixture& f = fixture();
  nn::BatchNorm2d* bn = nullptr;
  nn::visit_layers(f.net.root(), [&](nn::Layer& l) {
    if (bn == nullptr) bn = dynamic_cast<nn::BatchNorm2d*>(&l);
  });
  ASSERT_NE(bn, nullptr);
  Tensor mean_before = bn->running_mean();
  {
    puma::HwConfig hw;
    hw.bn_reestimate = true;
    puma::HwDeployment dep(f.net, f.model, calib(), hw);
    EXPECT_GT(max_abs_diff(mean_before, bn->running_mean()), 0.0f);
  }
  // Restored on teardown.
  EXPECT_EQ(max_abs_diff(mean_before, bn->running_mean()), 0.0f);
}

TEST(HwSemantics, DefenseHooksComposeWithDeployment) {
  Fixture& f = fixture();
  puma::HwDeployment dep(f.net, f.model, calib());
  auto sap = defense::attach_sap(f.net, defense::SapOptions{});
  // SAP on top of crossbar execution: still functional, still stochastic.
  Tensor a = f.net.forward(f.images[0], nn::Mode::Eval);
  Tensor b = f.net.forward(f.images[0], nn::Mode::Eval);
  EXPECT_GT(max_abs_diff(a, b), 0.0f);
  f.net.set_conv_eval_hooks(nullptr);
}

TEST(HwSemantics, EngineNameIdentifiesStack) {
  Fixture& f = fixture();
  puma::CrossbarMvmEngine engine(f.model, puma::HwConfig{}, 1.0f);
  EXPECT_NE(engine.name().find("32x32_100k"), std::string::npos);
  EXPECT_NE(engine.name().find("fast_noise"), std::string::npos);
}

TEST(HwSemantics, DeploymentAccuracyReasonableOnToyTask) {
  Fixture& f = fixture();
  const float ideal = nn::evaluate_accuracy(f.net, f.images, f.labels);
  puma::HwDeployment dep(f.net, f.model, calib());
  const float hw = nn::evaluate_accuracy(f.net, f.images, f.labels);
  EXPECT_GT(ideal, 90.0f);
  EXPECT_GT(hw, ideal - 20.0f);
}

// ---- Parallel execution model: parallel == serial, bit for bit. --------

nn::Network make_toy_resnet(std::uint64_t seed) {
  Rng r(seed);
  nn::ResnetCifarSpec spec;
  spec.blocks_per_stage = 1;
  spec.widths = {4, 8, 8};
  spec.num_classes = 2;
  return nn::make_resnet_cifar(spec, r);
}

/// Weight-exact clone of the fixture network (round-trip through the
/// binary serializer), giving the replica overloads an independent layer
/// tree with identical parameters and BN statistics.
nn::Network clone_fixture_net() {
  Fixture& f = fixture();
  nn::Network copy = make_toy_resnet(62);
  std::stringstream buf;
  BinaryWriter w(buf);
  f.net.save(w);
  BinaryReader r(buf);
  copy.load(r);
  return copy;
}

TEST(HwSemantics, TiledMatmulBitIdenticalAcrossThreadCounts) {
  Rng rng(97);
  Tensor w = Tensor::normal({40, 70}, 0.0f, 0.2f, rng);  // 2x3 tile grid
  Tensor x = Tensor::uniform({70, 9}, 0.0f, 1.0f, rng);
  auto model = std::make_shared<xbar::FastNoiseModel>(xbar::xbar_32x32_100k());
  puma::TiledMatrix tiled(w, model, puma::HwConfig{});

  ThreadPool serial(1), wide(4);
  Tensor r_serial, r_wide;
  {
    ThreadPool::ScopedUse use(serial);
    r_serial = tiled.matmul(x, 1.0f);
  }
  {
    ThreadPool::ScopedUse use(wide);
    r_wide = tiled.matmul(x, 1.0f);
  }
  EXPECT_EQ(max_abs_diff(r_serial, r_wide), 0.0f);
}

TEST(HwSemantics, TiledProgrammingBitIdenticalAcrossThreadCounts) {
  // TiledMatrix programs its tile slots as parallel tasks. The programmed
  // state must not depend on the pool: the same tiles are skipped, and
  // every path (int digital, fused fast-noise kernels, GENIEx with its
  // lazily programmed fallback, decorated models) gives the same outputs.
  xbar::CrossbarConfig cfg = xbar::xbar_32x32_100k();
  cfg.rows = cfg.cols = 16;
  cfg.name = "16x16_prog_test";
  Rng rng(131);
  Tensor w = Tensor::normal({40, 70}, 0.0f, 0.2f, rng);  // 3x5 tile grid
  for (std::int64_t m = 0; m < 16; ++m)
    for (std::int64_t k = 0; k < 16; ++k) {
      w.at(m, k) = 0.0f;                                 // one empty tile
      w.at(m, 16 + k) = std::abs(w.at(m, 16 + k));       // one empty polarity
    }
  Tensor x = Tensor::uniform({70, 5}, 0.0f, 1.0f, rng);

  // An untrained surrogate behind a narrow trust envelope: some of its
  // predictions leave the envelope, so the lazily programmed fallback runs
  // too (concurrently, under the wide pool).
  Rng mlp_rng(132);
  xbar::GeniexGuardOptions narrow;
  narrow.rel_max = 0.5f;
  auto geniex = std::make_shared<xbar::GeniexModel>(
      cfg, xbar::MlpRegressor(xbar::kGeniexFeatureCount, 8, mlp_rng), narrow);
  const std::uint64_t fallbacks_before =
      health_value(HealthCounter::SurrogateFallback);
  xbar::FaultOptions faults;
  faults.stuck_on_rate = 0.02;
  faults.stuck_off_rate = 0.02;
  const std::vector<std::pair<const char*, std::shared_ptr<xbar::MvmModel>>>
      models = {
          {"ideal", std::make_shared<xbar::IdealXbarModel>(cfg)},
          {"fast_noise", std::make_shared<xbar::FastNoiseModel>(cfg)},
          {"geniex", geniex},
          {"var(fault(geniex))",
           std::make_shared<xbar::VariationModel>(
               std::make_shared<xbar::FaultModel>(geniex, faults),
               xbar::VariationOptions{})},
      };

  ThreadPool serial(1), wide(4);
  for (const auto& [name, model] : models) {
    SCOPED_TRACE(name);
    std::unique_ptr<puma::TiledMatrix> a, b;
    {
      ThreadPool::ScopedUse use(serial);
      a = std::make_unique<puma::TiledMatrix>(w, model, puma::HwConfig{});
    }
    {
      ThreadPool::ScopedUse use(wide);
      b = std::make_unique<puma::TiledMatrix>(w, model, puma::HwConfig{});
    }
    EXPECT_EQ(a->programmed_tiles(), b->programmed_tiles());
    EXPECT_LT(a->programmed_tiles(), a->total_tile_slots());
    ThreadPool::ScopedUse use(wide);
    const Tensor ra = a->matmul(x, 1.0f);
    const Tensor rb = b->matmul(x, 1.0f);
    EXPECT_EQ(std::vector<float>(ra.data().begin(), ra.data().end()),
              std::vector<float>(rb.data().begin(), rb.data().end()));
  }
  EXPECT_GT(health_value(HealthCounter::SurrogateFallback), fallbacks_before);
}

TEST(HwSemantics, SolverBatchBitIdenticalAcrossThreadCounts) {
  xbar::CrossbarConfig cfg = xbar::xbar_32x32_100k();
  cfg.rows = cfg.cols = 16;
  xbar::CircuitSolverModel model(cfg);
  Rng rng(98);
  auto programmed = model.program(Tensor::uniform(
      {16, 16}, static_cast<float>(cfg.g_off()), static_cast<float>(cfg.g_on()),
      rng));
  Tensor vb = Tensor::uniform({16, 7}, 0.0f,
                              static_cast<float>(cfg.v_read), rng);

  ThreadPool serial(1), wide(4);
  Tensor r_serial, r_wide;
  {
    ThreadPool::ScopedUse use(serial);
    r_serial = programmed->mvm_batch(vb);
  }
  {
    ThreadPool::ScopedUse use(wide);
    r_wide = programmed->mvm_batch(vb);
  }
  EXPECT_EQ(max_abs_diff(r_serial, r_wide), 0.0f);
}

TEST(HwSemantics, ParallelAccuracyMatchesSerialExactly) {
  Fixture& f = fixture();
  nn::Network replica_net = clone_fixture_net();
  const core::ForwardFn fns[] = {core::plain_forward(f.net),
                                 core::plain_forward(replica_net)};

  const float serial = core::accuracy(fns[0], f.images, f.labels);
  ThreadPool wide(4);
  ThreadPool::ScopedUse use(wide);
  const float parallel = core::accuracy(std::span<const core::ForwardFn>(fns),
                                        f.images, f.labels);
  EXPECT_EQ(serial, parallel);
}

TEST(HwSemantics, ParallelPgdCraftingMatchesSerialExactly) {
  Fixture& f = fixture();
  nn::Network replica_net = clone_fixture_net();
  attack::NetworkAttackModel a0(f.net), a1(replica_net);

  attack::PgdOptions opt;
  opt.iters = 3;  // enough to exercise seeding + gradient path
  const std::span<const Tensor> images(f.images.data(), 10);
  const std::span<const std::int64_t> labels(f.labels.data(), 10);

  const std::vector<Tensor> serial = core::craft_pgd(a0, images, labels, opt);
  attack::AttackModel* attackers[] = {&a0, &a1};
  ThreadPool wide(4);
  ThreadPool::ScopedUse use(wide);
  const std::vector<Tensor> parallel = core::craft_pgd(
      std::span<attack::AttackModel* const>(attackers), images, labels, opt);

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i)
    EXPECT_EQ(max_abs_diff(serial[i], parallel[i]), 0.0f) << "image " << i;
}

TEST(HwSemantics, TwoSequentialDeploymentsAreIndependent) {
  Fixture& f = fixture();
  Tensor x = f.images[7];
  Tensor first, second;
  {
    puma::HwDeployment dep(f.net, f.model, calib());
    first = f.net.forward(x, nn::Mode::Eval);
  }
  {
    puma::HwDeployment dep(f.net, f.model, calib());
    second = f.net.forward(x, nn::Mode::Eval);
  }
  EXPECT_EQ(max_abs_diff(first, second), 0.0f);
}

}  // namespace
}  // namespace nvm
