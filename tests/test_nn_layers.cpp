// Gradient checks: every layer's backward() is validated against central
// finite differences of its forward(), for both input gradients and
// parameter gradients. The scalar objective is a fixed random linear
// functional of the layer output.
#include <gtest/gtest.h>

#include <cmath>

#include "common/check.h"

#include "nn/activations.h"
#include "nn/batchnorm.h"
#include "nn/conv.h"
#include "nn/linear.h"
#include "nn/pool.h"
#include "nn/sequential.h"

namespace nvm::nn {
namespace {

/// L(x) = sum_i c_i * layer(x)_i for a fixed random c.
class LossProbe {
 public:
  LossProbe(Layer& layer, const Shape& out_shape, Mode mode, Rng& rng)
      : layer_(layer), mode_(mode),
        c_(Tensor::normal(out_shape, 0.0f, 1.0f, rng)) {}

  float value(const Tensor& x) {
    Tensor y = layer_.forward(x, mode_);
    double acc = 0;
    for (std::int64_t i = 0; i < y.numel(); ++i) acc += double(y[i]) * c_[i];
    return static_cast<float>(acc);
  }

  /// Analytic input gradient; parameter grads accumulate in the layer.
  Tensor input_grad(const Tensor& x) {
    (void)layer_.forward(x, mode_);
    return layer_.backward(c_);
  }

 private:
  Layer& layer_;
  Mode mode_;
  Tensor c_;
};

void expect_grad_close(const Tensor& analytic, const Tensor& numeric,
                       float tol, const std::string& what) {
  ASSERT_TRUE(analytic.same_shape(numeric)) << what;
  const float scale = std::max(1.0f, numeric.abs_max());
  for (std::int64_t i = 0; i < analytic.numel(); ++i)
    EXPECT_NEAR(analytic[i], numeric[i], tol * scale)
        << what << " element " << i;
}

/// Central-difference input gradient.
Tensor numeric_input_grad(LossProbe& probe, Tensor x, float h = 1e-3f) {
  Tensor g(x.shape());
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    const float orig = x[i];
    x[i] = orig + h;
    const float up = probe.value(x);
    x[i] = orig - h;
    const float down = probe.value(x);
    x[i] = orig;
    g[i] = (up - down) / (2 * h);
  }
  return g;
}

/// Central-difference gradient for one parameter tensor.
Tensor numeric_param_grad(LossProbe& probe, const Tensor& x, Tensor& p,
                          float h = 1e-3f) {
  Tensor g(p.shape());
  for (std::int64_t i = 0; i < p.numel(); ++i) {
    const float orig = p[i];
    p[i] = orig + h;
    const float up = probe.value(x);
    p[i] = orig - h;
    const float down = probe.value(x);
    p[i] = orig;
    g[i] = (up - down) / (2 * h);
  }
  return g;
}

void check_layer_gradients(Layer& layer, const Tensor& x, Mode mode,
                           float tol = 2e-2f) {
  Rng rng(99);
  Tensor probe_out = layer.forward(x, mode);
  LossProbe probe(layer, probe_out.shape(), mode, rng);

  for (Param* p : layer.params()) p->grad.fill(0.0f);
  Tensor gx = probe.input_grad(x);
  expect_grad_close(gx, numeric_input_grad(probe, x), tol, "input grad");

  for (std::size_t pi = 0; pi < layer.params().size(); ++pi) {
    Param* p = layer.params()[pi];
    Tensor num = numeric_param_grad(probe, x, p->value);
    expect_grad_close(p->grad, num, tol, "param " + std::to_string(pi));
  }
}

TEST(GradCheck, Conv2dBasic) {
  Rng rng(1);
  Conv2d conv(2, 3, 3, 1, 1, rng);
  Tensor x = Tensor::normal({2, 5, 5}, 0, 1, rng);
  check_layer_gradients(conv, x, Mode::Train);
}

TEST(GradCheck, Conv2dStridedNoPad) {
  Rng rng(2);
  Conv2d conv(3, 2, 3, 2, 0, rng);
  Tensor x = Tensor::normal({3, 7, 7}, 0, 1, rng);
  check_layer_gradients(conv, x, Mode::Train);
}

TEST(GradCheck, Conv2dOneByOne) {
  Rng rng(3);
  Conv2d conv(4, 2, 1, 1, 0, rng);
  Tensor x = Tensor::normal({4, 4, 4}, 0, 1, rng);
  check_layer_gradients(conv, x, Mode::Train);
}

TEST(GradCheck, Linear) {
  Rng rng(4);
  Linear lin(6, 4, rng);
  Tensor x = Tensor::normal({6}, 0, 1, rng);
  check_layer_gradients(lin, x, Mode::Train);
}

/// A backward after an Eval forward returns the same dX, bit for bit, as
/// after a Train forward (conv and linear forwards do not depend on the
/// mode), but it is input-only: only the Train backward moves the grads.
void expect_eval_backward_input_only(Layer& layer, const Tensor& x) {
  Rng rng(98);
  const Tensor g = Tensor::normal(layer.forward(x, Mode::Train).shape(),
                                  0.0f, 1.0f, rng);
  constexpr float kSentinel = 7.0f;
  for (Param* p : layer.params()) p->grad.fill(kSentinel);

  (void)layer.forward(x, Mode::Eval);
  const Tensor dx_eval = layer.backward(g);
  for (Param* p : layer.params())
    for (std::int64_t i = 0; i < p->grad.numel(); ++i)
      ASSERT_EQ(p->grad[i], kSentinel) << "Eval backward wrote a grad";

  (void)layer.forward(x, Mode::Train);
  const Tensor dx_train = layer.backward(g);
  ASSERT_TRUE(dx_eval.same_shape(dx_train));
  for (std::int64_t i = 0; i < dx_eval.numel(); ++i)
    EXPECT_EQ(dx_eval[i], dx_train[i]) << "dx element " << i;
  for (Param* p : layer.params()) {
    bool moved = false;
    for (std::int64_t i = 0; i < p->grad.numel(); ++i)
      moved = moved || p->grad[i] != kSentinel;
    EXPECT_TRUE(moved) << "Train backward left a grad untouched";
  }
}

TEST(GradCheck, Conv2dEvalBackwardIsInputOnly) {
  Rng rng(17);
  Conv2d conv(3, 4, 3, 2, 1, rng);
  expect_eval_backward_input_only(conv, Tensor::normal({3, 6, 6}, 0, 1, rng));
}

TEST(GradCheck, LinearEvalBackwardIsInputOnly) {
  Rng rng(18);
  Linear lin(6, 4, rng);
  expect_eval_backward_input_only(lin, Tensor::normal({6}, 0, 1, rng));
}

TEST(GradCheck, ReLU) {
  Rng rng(5);
  ReLU relu;
  // Keep values away from the kink where finite differences are invalid.
  Tensor x = Tensor::normal({3, 4, 4}, 0, 1, rng);
  for (auto& v : x.data())
    if (std::abs(v) < 0.05f) v = 0.2f;
  check_layer_gradients(relu, x, Mode::Train);
}

TEST(GradCheck, BatchNormTrainMode) {
  Rng rng(6);
  BatchNorm2d bn(3);
  Tensor x = Tensor::normal({3, 4, 4}, 0.5f, 2.0f, rng);
  check_layer_gradients(bn, x, Mode::Train, 3e-2f);
}

TEST(GradCheck, BatchNormFrozenTrainMode) {
  Rng rng(7);
  BatchNorm2d bn(3);
  // Populate running stats, then freeze.
  Tensor warm = Tensor::normal({3, 4, 4}, 1.0f, 2.0f, rng);
  for (int i = 0; i < 10; ++i) (void)bn.forward(warm, Mode::Train);
  bn.set_frozen(true);
  Tensor x = Tensor::normal({3, 4, 4}, 0.5f, 1.5f, rng);
  check_layer_gradients(bn, x, Mode::Train);
}

TEST(GradCheck, BatchNormEvalInputGradOnly) {
  Rng rng(8);
  BatchNorm2d bn(2);
  Tensor warm = Tensor::normal({2, 3, 3}, 0.0f, 1.0f, rng);
  for (int i = 0; i < 10; ++i) (void)bn.forward(warm, Mode::Train);
  Tensor x = Tensor::normal({2, 3, 3}, 0, 1, rng);
  LossProbe probe(bn, x.shape(), Mode::Eval, rng);
  Tensor gx = probe.input_grad(x);
  expect_grad_close(gx, numeric_input_grad(probe, x), 2e-2f, "bn eval dx");
}

TEST(GradCheck, GlobalAvgPool) {
  Rng rng(9);
  GlobalAvgPool pool;
  Tensor x = Tensor::normal({3, 4, 4}, 0, 1, rng);
  check_layer_gradients(pool, x, Mode::Train);
}

TEST(GradCheck, AvgPool2d) {
  Rng rng(10);
  AvgPool2d pool(2);
  Tensor x = Tensor::normal({2, 4, 6}, 0, 1, rng);
  check_layer_gradients(pool, x, Mode::Train);
}

TEST(GradCheck, Flatten) {
  Rng rng(11);
  Flatten flat;
  Tensor x = Tensor::normal({2, 3, 3}, 0, 1, rng);
  check_layer_gradients(flat, x, Mode::Train);
}

TEST(GradCheck, ResidualBlockIdentityShortcut) {
  Rng rng(12);
  ResidualBlock block(3, 3, 1, rng);
  Tensor x = Tensor::normal({3, 4, 4}, 0.5f, 1.0f, rng);
  check_layer_gradients(block, x, Mode::Train, 4e-2f);
}

TEST(GradCheck, ResidualBlockProjectionShortcut) {
  Rng rng(13);
  ResidualBlock block(2, 4, 2, rng);
  Tensor x = Tensor::normal({2, 6, 6}, 0.5f, 1.0f, rng);
  check_layer_gradients(block, x, Mode::Train, 4e-2f);
}

TEST(GradCheck, SequentialChain) {
  Rng rng(14);
  Sequential seq;
  seq.emplace<Conv2d>(2, 3, 3, 1, 1, rng);
  seq.emplace<ReLU>();
  seq.emplace<GlobalAvgPool>();
  seq.emplace<Linear>(3, 2, rng);
  Tensor x = Tensor::normal({2, 5, 5}, 0.5f, 1.0f, rng);
  check_layer_gradients(seq, x, Mode::Train, 3e-2f);
}

TEST(Layer, BackwardBeforeForwardThrows) {
  Rng rng(15);
  Conv2d conv(1, 1, 3, 1, 1, rng);
  EXPECT_THROW(conv.backward(Tensor({1, 3, 3})), CheckError);
}

TEST(Layer, EvalHookAppliedOnlyInEval) {
  ReLU relu;
  relu.set_eval_hook([](const Tensor& y) {
    Tensor out = y;
    out *= 2.0f;
    return out;
  });
  Tensor x({2}, {1.0f, -1.0f});
  Tensor train_out = relu.forward(x, Mode::Train);
  Tensor eval_out = relu.forward(x, Mode::Eval);
  EXPECT_EQ(train_out[0], 1.0f);
  EXPECT_EQ(eval_out[0], 2.0f);
}

TEST(Layer, CollectParamsWalksTree) {
  Rng rng(16);
  Sequential seq;
  seq.emplace<Conv2d>(1, 2, 3, 1, 1, rng);      // 1 param
  seq.emplace<BatchNorm2d>(2);                  // 2 params
  seq.emplace<ResidualBlock>(2, 2, 1, rng);     // 2 convs + 2 bns = 6 params
  EXPECT_EQ(collect_params(seq).size(), 9u);
}

}  // namespace
}  // namespace nvm::nn
