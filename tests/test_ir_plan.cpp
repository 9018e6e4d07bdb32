// Lazy IR capture, fused execution plans, and the strict double parser:
// hash-consing and graph-hash stability, interpreter-vs-plan bit-identity
// across every backend / wrapper / thread-count / ISA combination and
// across configs that share a geometry, and the parse_double/env_double
// contract that replaced raw std::stod in the CLI.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <memory>
#include <vector>

#include "common/check.h"
#include "common/env.h"
#include "common/file_cache.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/simd.h"
#include "common/thread_pool.h"
#include "core/evaluator.h"
#include "nn/ir.h"
#include "nn/resnet.h"
#include "puma/plan.h"
#include "puma/tiled_mvm.h"
#include "xbar/fast_noise.h"
#include "xbar/fault.h"
#include "xbar/geniex.h"
#include "xbar/variation.h"

namespace nvm {
namespace {

// ---------------------------------------------------------------------------
// parse_double / env_double (the std::stod crash-fix sweep)
// ---------------------------------------------------------------------------

TEST(ParseDouble, AcceptsWellFormedNumbers) {
  double v = 0.0;
  EXPECT_TRUE(parse_double("0.25", &v));
  EXPECT_EQ(v, 0.25);
  EXPECT_TRUE(parse_double("-3e2", &v));
  EXPECT_EQ(v, -300.0);
  EXPECT_TRUE(parse_double("  7.5", &v));  // leading space: strtod skips
  EXPECT_EQ(v, 7.5);
  EXPECT_TRUE(parse_double("8.0 ", &v));  // trailing space tolerated
  EXPECT_EQ(v, 8.0);
}

TEST(ParseDouble, RejectsMalformedInputWithoutThrowing) {
  // Regression: these strings previously reached std::stod in the CLI
  // (flag_or / parse_list / fleet_param) and terminated the process with
  // an uncaught std::invalid_argument. The strict parser must report
  // failure instead of throwing.
  double v = 42.0;
  EXPECT_FALSE(parse_double("abc", &v));
  EXPECT_FALSE(parse_double("", &v));
  EXPECT_FALSE(parse_double(nullptr, &v));
  EXPECT_FALSE(parse_double("0.1x", &v));  // trailing junk (stod half-parses!)
  EXPECT_FALSE(parse_double("--2", &v));
  EXPECT_FALSE(parse_double("1e999", &v));  // ERANGE
  EXPECT_EQ(v, 42.0) << "failed parse must not clobber the output";
}

TEST(EnvDouble, FallsBackOnUnsetAndMalformed) {
  ::unsetenv("NVM_TEST_DBL");
  EXPECT_EQ(env_double("NVM_TEST_DBL", 1.5), 1.5);
  ::setenv("NVM_TEST_DBL", "2.75", 1);
  EXPECT_EQ(env_double("NVM_TEST_DBL", 1.5), 2.75);
  ::setenv("NVM_TEST_DBL", "not-a-number", 1);
  EXPECT_EQ(env_double("NVM_TEST_DBL", 1.5), 1.5);
  ::setenv("NVM_TEST_DBL", "3.5junk", 1);
  EXPECT_EQ(env_double("NVM_TEST_DBL", 1.5), 1.5);
  ::unsetenv("NVM_TEST_DBL");
}

// ---------------------------------------------------------------------------
// IR graph: hash-consing, scope exclusion, hash stability, shape cache
// ---------------------------------------------------------------------------

TEST(IrGraph, HashConsesStructurallyIdenticalNodes) {
  nn::ir::Graph g;
  const std::int64_t in = g.intern(nn::ir::Op::kInput, {}, {8}, "x");
  const std::int64_t a = g.intern(nn::ir::Op::kRelu, {in}, {}, "a");
  const std::int64_t b = g.intern(nn::ir::Op::kRelu, {in}, {}, "b");
  EXPECT_EQ(a, b) << "same (op, inputs, attrs) must intern to one node";
  EXPECT_EQ(g.size(), 2);
  // Different attrs or inputs stay distinct.
  const std::int64_t c = g.intern(nn::ir::Op::kLinear, {a}, {4, 8}, "c");
  const std::int64_t d = g.intern(nn::ir::Op::kLinear, {a}, {4, 9}, "d");
  EXPECT_NE(c, d);
  EXPECT_EQ(g.size(), 4);
}

TEST(IrGraph, ScopeIsDiagnosticOnlyAndHashIsStable) {
  auto build = [](const char* scope_tag) {
    nn::ir::Graph g;
    const std::int64_t in = g.intern(nn::ir::Op::kInput, {}, {8}, scope_tag);
    const std::int64_t r = g.intern(nn::ir::Op::kRelu, {in}, {}, scope_tag);
    g.intern(nn::ir::Op::kOutput, {r}, {2}, scope_tag);
    return g.graph_hash(17);
  };
  EXPECT_EQ(build("first"), build("second"))
      << "scope must not participate in the structural hash";
  // Different seed or structure moves the hash.
  nn::ir::Graph g;
  const std::int64_t in = g.intern(nn::ir::Op::kInput, {}, {8}, "x");
  g.intern(nn::ir::Op::kOutput, {in}, {2}, "y");
  EXPECT_NE(g.graph_hash(17), build("x"));
  EXPECT_NE(g.graph_hash(17), g.graph_hash(18));
}

TEST(IrGraph, ShapeCacheFillsLazily) {
  nn::ir::Graph g;
  const std::int64_t in = g.intern(nn::ir::Op::kInput, {}, {}, "x");
  EXPECT_EQ(g.shape(in), nullptr);
  g.set_shape(in, Shape{3, 8, 8});
  ASSERT_NE(g.shape(in), nullptr);
  EXPECT_EQ(*g.shape(in), (Shape{3, 8, 8}));
  EXPECT_NE(g.to_string().find("input"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Network capture and NetworkPlan replay
// ---------------------------------------------------------------------------

nn::Network small_resnet(std::uint64_t seed) {
  Rng rng(seed);
  nn::ResnetCifarSpec spec;
  spec.blocks_per_stage = 1;
  spec.widths = {4, 8, 8};
  spec.num_classes = 2;
  return nn::make_resnet_cifar(spec, rng);
}

Tensor toy_image(std::uint64_t seed) {
  Rng rng(seed);
  Tensor img({3, 8, 8});
  for (std::int64_t i = 0; i < img.numel(); ++i)
    img[i] = static_cast<float>(rng.uniform(0.0, 1.0));
  return img;
}

TEST(NetworkPlan, CaptureProducesStableHashAndBitIdenticalReplay) {
  nn::Network net = small_resnet(5);
  nn::ir::Capture cap = nn::ir::capture(net);
  ASSERT_TRUE(cap.ok) << cap.reason;
  EXPECT_GT(cap.graph.size(), 2);
  EXPECT_FALSE(cap.steps.empty());

  // The same architecture (fresh weights) captures to the same hash:
  // structure only, no pointers, no values.
  nn::Network twin = small_resnet(99);
  nn::ir::Capture cap2 = nn::ir::capture(twin);
  ASSERT_TRUE(cap2.ok);
  EXPECT_EQ(cap.graph.graph_hash(1), cap2.graph.graph_hash(1));

  std::shared_ptr<puma::NetworkPlan> plan = puma::NetworkPlan::capture(net);
  ASSERT_NE(plan, nullptr);
  Tensor x = toy_image(7);
  Tensor eager = net.forward(x, nn::Mode::Eval);
  Tensor planned = plan->forward(x);
  ASSERT_EQ(eager.numel(), planned.numel());
  for (std::int64_t i = 0; i < eager.numel(); ++i)
    EXPECT_EQ(eager[i], planned[i]) << i;
  // First replay records the observed shapes into the graph's shape cache.
  EXPECT_NE(plan->graph().shape(0), nullptr);
}

TEST(NetworkPlan, EvalHookFallsBackToEagerInterpreter) {
  nn::Network net = small_resnet(6);
  net.root().children().front()->set_eval_hook(
      [](const Tensor& y) { return y; });
  nn::ir::Capture cap = nn::ir::capture(net);
  EXPECT_FALSE(cap.ok);
  EXPECT_NE(cap.reason.find("eval hook"), std::string::npos) << cap.reason;
  EXPECT_EQ(puma::NetworkPlan::capture(net), nullptr);
  // plain_forward still works — it silently keeps the eager walk.
  core::ForwardFn fn = core::plain_forward(net);
  Tensor x = toy_image(8);
  Tensor eager = net.forward(x, nn::Mode::Eval);
  Tensor routed = fn(x);
  for (std::int64_t i = 0; i < eager.numel(); ++i)
    EXPECT_EQ(eager[i], routed[i]) << i;
}

// ---------------------------------------------------------------------------
// Interpreter-vs-plan bit-identity matrix
// ---------------------------------------------------------------------------

/// Cache-isolated fixture: every test that builds a plan runs against a
/// private, initially empty cache directory.
class PlanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("nvm_plan_test_" + std::to_string(::getpid()));
    ::setenv("NVMROBUST_CACHE_DIR", dir_.c_str(), 1);
    reset_file_cache_memo_for_tests();
  }
  void TearDown() override {
    ::unsetenv("NVMROBUST_CACHE_DIR");
    std::filesystem::remove_all(dir_);
    reset_file_cache_memo_for_tests();
  }
  std::filesystem::path dir_;
};

std::vector<simd::Isa> test_isas() {
  std::vector<simd::Isa> isas{simd::Isa::Scalar};
  for (simd::Isa isa :
       {simd::Isa::Avx2, simd::Isa::Avx512, simd::Isa::Neon})
    if (simd::isa_usable(isa)) isas.push_back(isa);
  return isas;
}

xbar::CrossbarConfig small_cfg() {
  xbar::CrossbarConfig cfg = xbar::xbar_32x32_100k();
  cfg.rows = cfg.cols = 16;
  cfg.name = "16x16_plan_test";
  return cfg;
}

/// The GENIEx surrogate shared across tests in this binary (training once
/// is the slow part; bit-identity only needs *a* deterministic surrogate).
const xbar::GeniexFit& shared_fit() {
  static const xbar::GeniexFit fit = [] {
    xbar::GeniexTrainOptions opt;
    opt.solver_samples = 80;
    return xbar::GeniexModel::fit(small_cfg(), opt);
  }();
  return fit;
}

/// Backends x wrappers for the identity matrix. Wrapped models take the
/// legacy float path (decorators do not advertise chunk/ideal
/// capabilities), bare fast_noise takes the fused chunk path, bare ideal
/// the int-digital path — together all three plan paths are exercised.
std::vector<std::pair<std::string, std::shared_ptr<const xbar::MvmModel>>>
backend_matrix() {
  const xbar::CrossbarConfig cfg = small_cfg();
  auto ideal = std::make_shared<xbar::IdealXbarModel>(cfg);
  auto fast = std::make_shared<xbar::FastNoiseModel>(cfg);
  auto geniex =
      std::make_shared<xbar::GeniexModel>(cfg, shared_fit().mlp);
  xbar::FaultOptions fo;
  fo.stuck_on_rate = 0.05;
  fo.stuck_off_rate = 0.05;
  xbar::VariationOptions vo;
  return {
      {"ideal", ideal},
      {"fast_noise", fast},
      {"geniex", geniex},
      {"fault(fast_noise)", std::make_shared<xbar::FaultModel>(fast, fo)},
      {"variation(fast_noise)",
       std::make_shared<xbar::VariationModel>(fast, vo)},
      {"fault(ideal)", std::make_shared<xbar::FaultModel>(ideal, fo)},
  };
}

TEST_F(PlanTest, ExecutionBitIdenticalToInterpreterAcrossMatrix) {
  Rng rng(71);
  Tensor w = Tensor::normal({20, 18}, 0.0f, 0.4f, rng);
  Tensor x({18, 5});
  for (std::int64_t i = 0; i < x.numel(); ++i)
    x[i] = static_cast<float>(rng.uniform(0.0, 1.0));

  for (auto& [tag, model] : backend_matrix()) {
    puma::TiledMatrix tiled(w, model, puma::HwConfig{});
    Tensor ref;
    {
      puma::ScopedPlanForTests off(false);
      simd::ScopedIsaForTests scope(simd::Isa::Scalar);
      ThreadPool serial(1);
      ThreadPool::ScopedUse use(serial);
      ref = tiled.matmul(x, 0.0f);
    }
    ASSERT_GT(ref.abs_max(), 0.0f) << tag;
    puma::ScopedPlanForTests on(true);
    for (simd::Isa isa : test_isas()) {
      simd::ScopedIsaForTests scope(isa);
      for (std::size_t threads : {1u, 4u}) {
        ThreadPool pool(threads);
        ThreadPool::ScopedUse use(pool);
        Tensor out = tiled.matmul(x, 0.0f);
        ASSERT_EQ(out.numel(), ref.numel());
        for (std::int64_t i = 0; i < out.numel(); ++i)
          EXPECT_EQ(out[i], ref[i])
              << tag << " isa=" << simd::isa_name(isa)
              << " threads=" << threads << " i=" << i;
      }
    }
  }
}

TEST_F(PlanTest, FusedKernelsEngageForFastNoiseAndStayBitIdentical) {
  Rng rng(72);
  Tensor w = Tensor::normal({20, 18}, 0.0f, 0.4f, rng);
  Tensor x({18, 5});
  for (std::int64_t i = 0; i < x.numel(); ++i)
    x[i] = static_cast<float>(rng.uniform(0.0, 1.0));
  auto model = std::make_shared<xbar::FastNoiseModel>(small_cfg());
  puma::TiledMatrix tiled(w, model, puma::HwConfig{});

  const puma::MvmPlan* plan = tiled.plan();
  ASSERT_NE(plan, nullptr);
  EXPECT_GT(plan->fused_slots(), 0)
      << "chunk-capable model must compile fused kernels";

  Tensor ref;
  {
    puma::ScopedPlanForTests off(false);
    ref = tiled.matmul(x, 0.0f);
  }
  metrics::Counter& fused_runs = metrics::counter("plan/fused_runs");
  const std::uint64_t before = fused_runs.value();
  Tensor out;
  {
    puma::ScopedPlanForTests on(true);
    out = tiled.matmul(x, 0.0f);
  }
  EXPECT_GT(fused_runs.value(), before) << "fused path did not engage";
  for (std::int64_t i = 0; i < out.numel(); ++i)
    EXPECT_EQ(out[i], ref[i]) << i;
  // The int-path escape hatch stays honored under plans too.
  Tensor legacy_ref, legacy_plan;
  {
    puma::ScopedIntPathForTests int_off(false);
    puma::ScopedPlanForTests off(false);
    legacy_ref = tiled.matmul(x, 0.0f);
  }
  {
    puma::ScopedIntPathForTests int_off(false);
    puma::ScopedPlanForTests on(true);
    legacy_plan = tiled.matmul(x, 0.0f);
  }
  for (std::int64_t i = 0; i < legacy_plan.numel(); ++i)
    EXPECT_EQ(legacy_plan[i], legacy_ref[i]) << i;
}

// ---------------------------------------------------------------------------
// Plans never carry state between configs
// ---------------------------------------------------------------------------

/// Same geometry as small_cfg(), different R_ON: the ADC shift factors
/// differ (dot_unit scales with the conductance range) while the plan's
/// graph hash, which carries only hw tag, model name and geometry, does
/// not.
xbar::CrossbarConfig small_cfg_300k() {
  xbar::CrossbarConfig cfg = xbar::xbar_64x64_300k();
  cfg.rows = cfg.cols = 16;
  cfg.name = "16x16_plan_test_300k";
  return cfg;
}

const xbar::GeniexFit& shared_fit_300k() {
  static const xbar::GeniexFit fit = [] {
    xbar::GeniexTrainOptions opt;
    opt.solver_samples = 80;
    return xbar::GeniexModel::fit(small_cfg_300k(), opt);
  }();
  return fit;
}

TEST_F(PlanTest, SameGeometryConfigsMatchInterpreterInEitherOrder) {
  // Regression: plans used to round-trip their ADC shifts through a file
  // cache keyed without R_ON, so whichever config compiled second in a
  // process (or against a warm cache dir) adopted the first one's shifts.
  Rng rng(75);
  Tensor w = Tensor::normal({20, 18}, 0.0f, 0.4f, rng);
  Tensor x({18, 5});
  for (std::int64_t i = 0; i < x.numel(); ++i)
    x[i] = static_cast<float>(rng.uniform(0.0, 1.0));

  using ModelPair = std::pair<std::shared_ptr<const xbar::MvmModel>,
                              std::shared_ptr<const xbar::MvmModel>>;
  const std::vector<std::pair<std::string, ModelPair>> families = {
      {"fast_noise",
       {std::make_shared<xbar::FastNoiseModel>(small_cfg()),
        std::make_shared<xbar::FastNoiseModel>(small_cfg_300k())}},
      {"geniex",
       {std::make_shared<xbar::GeniexModel>(small_cfg(), shared_fit().mlp),
        std::make_shared<xbar::GeniexModel>(small_cfg_300k(),
                                            shared_fit_300k().mlp)}},
  };
  for (const auto& [tag, models] : families) {
    const auto& [m100, m300] = models;
    for (const bool forward_order : {true, false}) {
      for (const auto& model : forward_order
                                   ? std::vector{m100, m300}
                                   : std::vector{m300, m100}) {
        puma::TiledMatrix tiled(w, model, puma::HwConfig{});
        Tensor ref;
        {
          puma::ScopedPlanForTests off(false);
          ref = tiled.matmul(x, 0.0f);
        }
        ASSERT_GT(ref.abs_max(), 0.0f) << tag;
        puma::ScopedPlanForTests on(true);
        Tensor out = tiled.matmul(x, 0.0f);
        for (std::int64_t i = 0; i < out.numel(); ++i)
          ASSERT_EQ(out[i], ref[i])
              << tag << " " << model->config().name
              << (forward_order ? " (100k first)" : " (300k first)")
              << " i=" << i;
      }
    }
  }
}

}  // namespace
}  // namespace nvm
