#include "xbar/mlp.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/check.h"
#include "common/simd.h"

namespace nvm::xbar {

float fast_tanh(float x) { return simd::tanh_fast(x); }

MlpRegressor::MlpRegressor(std::int64_t in_dim, std::int64_t hidden, Rng& rng)
    : in_dim_(in_dim),
      hidden_(hidden),
      w1_(Tensor::normal({hidden, in_dim}, 0.0f,
                         std::sqrt(1.0f / static_cast<float>(in_dim)), rng)),
      b1_(Tensor::zeros({hidden})),
      w2_(Tensor::normal({hidden}, 0.0f,
                         std::sqrt(1.0f / static_cast<float>(hidden)), rng)),
      b2_(Tensor::zeros({1})) {
  NVM_CHECK(in_dim > 0 && hidden > 0);
}

void MlpRegressor::save(BinaryWriter& w) const {
  w.write_i64(in_dim_);
  w.write_i64(hidden_);
  w1_.save(w);
  b1_.save(w);
  w2_.save(w);
  b2_.save(w);
}

MlpRegressor MlpRegressor::load(BinaryReader& r) {
  const std::int64_t in_dim = r.read_i64();
  const std::int64_t hidden = r.read_i64();
  Rng dummy(0);
  MlpRegressor m(in_dim, hidden, dummy);
  m.w1_ = Tensor::load(r);
  m.b1_ = Tensor::load(r);
  m.w2_ = Tensor::load(r);
  m.b2_ = Tensor::load(r);
  NVM_CHECK_EQ(m.w1_.dim(0), hidden);
  NVM_CHECK_EQ(m.w1_.dim(1), in_dim);
  return m;
}

float MlpRegressor::predict(std::span<const float> features) const {
  NVM_CHECK_EQ(static_cast<std::int64_t>(features.size()), in_dim_);
  float out;
  predict_block(features.data(), 1, &out);
  return out;
}

void MlpRegressor::predict_block(const float* features_t, std::int64_t n,
                                 float* out) const {
  // Whole-block forward through the gemm microtiles of the active simd
  // tier: hid = b1 + W1 * F, tanh, out = b2 + w2 * act — two gemm_accum
  // calls instead of a per-hidden-row madd sweep, so the hidden layer
  // runs 4xW broadcast-FMA microtiles (W = the tier's lane count).
  //
  // Columns are padded to a multiple of 16 (one AVX-512 vector; a whole
  // number of AVX2/NEON vectors): the gemm kernels handle remainder
  // columns with an unfused scalar tail, so without padding a sample's
  // result would depend on its position within the block and therefore on
  // the batch width n. With every real column inside the vector FMA body,
  // out[s] is invariant to n (GENIEx's evaluation pads the same way for
  // the same reason) and the vector tiers agree bit-for-bit with each
  // other (per column the FMA chain is lane-width-independent); only the
  // scalar tier differs, by the documented gemm [~ulp] bound.
  constexpr std::int64_t kPad = kMlpSamplePad;
  const std::int64_t np = (n + kPad - 1) / kPad * kPad;
  const float* w1 = w1_.raw();
  simd::WorkspacePool::Lease lease = simd::shared_workspace_pool().acquire();
  simd::Workspace& ws = lease.get();
  std::span<float> fp = ws.floats(0, static_cast<std::size_t>(in_dim_ * np));
  std::span<float> hid = ws.floats(1, static_cast<std::size_t>(hidden_ * np));
  std::span<float> op = ws.floats(2, static_cast<std::size_t>(np));

  // Stage features into the padded block; padding columns are zeroed so
  // their (discarded) accumulators stay finite through tanh.
  for (std::int64_t i = 0; i < in_dim_; ++i) {
    float* row = fp.data() + i * np;
    std::copy(features_t + i * n, features_t + (i + 1) * n, row);
    std::fill(row + n, row + np, 0.0f);
  }
  for (std::int64_t h = 0; h < hidden_; ++h)
    std::fill(hid.data() + h * np, hid.data() + (h + 1) * np, b1_[h]);
  simd::gemm_accum(hid.data(), w1, fp.data(), hidden_, np, in_dim_, in_dim_,
                   np, np);
  simd::tanh_block(hid.data(), hidden_ * np);
  std::fill(op.data(), op.data() + np, b2_[0]);
  simd::gemm_accum(op.data(), w2_.raw(), hid.data(), 1, np, hidden_, hidden_,
                   np, np);
  std::copy(op.data(), op.data() + n, out);
}

float MlpRegressor::train(const Tensor& x, const Tensor& y,
                          const MlpTrainOptions& opt) {
  NVM_CHECK_EQ(x.rank(), 2u);
  NVM_CHECK_EQ(x.dim(1), in_dim_);
  NVM_CHECK_EQ(x.dim(0), y.numel());
  const std::int64_t n = x.dim(0);
  NVM_CHECK_GT(n, 0);

  Rng rng(opt.seed);
  // Adam state.
  struct AdamState {
    Tensor m, v;
    explicit AdamState(const Shape& s) : m(Tensor::zeros(s)), v(Tensor::zeros(s)) {}
  };
  Tensor* params[4] = {&w1_, &b1_, &w2_, &b2_};
  std::vector<AdamState> adam;
  for (Tensor* p : params) adam.emplace_back(p->shape());
  const float beta1 = 0.9f, beta2 = 0.999f, eps = 1e-8f;
  std::int64_t t = 0;

  std::vector<std::int64_t> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);

  Tensor gw1(w1_.shape()), gb1(b1_.shape()), gw2(w2_.shape()), gb2(b2_.shape());
  std::vector<float> hidden_pre(static_cast<std::size_t>(hidden_));
  std::vector<float> hidden_act(static_cast<std::size_t>(hidden_));

  float last_epoch_mse = 0.0f;
  for (std::int64_t epoch = 0; epoch < opt.epochs; ++epoch) {
    rng.shuffle(order);
    double se = 0.0;
    for (std::int64_t start = 0; start < n; start += opt.batch) {
      const std::int64_t stop = std::min(n, start + opt.batch);
      gw1.fill(0);
      gb1.fill(0);
      gw2.fill(0);
      gb2.fill(0);
      for (std::int64_t s = start; s < stop; ++s) {
        const std::int64_t row = order[static_cast<std::size_t>(s)];
        const float* fx = x.raw() + row * in_dim_;
        // Forward.
        float out = b2_[0];
        for (std::int64_t h = 0; h < hidden_; ++h) {
          float acc = b1_[h];
          const float* wrow = w1_.raw() + h * in_dim_;
          for (std::int64_t i = 0; i < in_dim_; ++i) acc += wrow[i] * fx[i];
          hidden_pre[static_cast<std::size_t>(h)] = acc;
          hidden_act[static_cast<std::size_t>(h)] = fast_tanh(acc);
          out += w2_[h] * hidden_act[static_cast<std::size_t>(h)];
        }
        const float err = out - y[row];
        se += static_cast<double>(err) * err;
        // Backward (d/dout of 0.5*err^2 = err).
        gb2[0] += err;
        for (std::int64_t h = 0; h < hidden_; ++h) {
          const float a = hidden_act[static_cast<std::size_t>(h)];
          gw2[h] += err * a;
          const float dh = err * w2_[h] * (1.0f - a * a);
          gb1[h] += dh;
          float* grow = gw1.raw() + h * in_dim_;
          for (std::int64_t i = 0; i < in_dim_; ++i) grow[i] += dh * fx[i];
        }
      }
      // Adam step.
      ++t;
      const float count = static_cast<float>(stop - start);
      Tensor* grads[4] = {&gw1, &gb1, &gw2, &gb2};
      const float bc1 = 1.0f - std::pow(beta1, static_cast<float>(t));
      const float bc2 = 1.0f - std::pow(beta2, static_cast<float>(t));
      for (int pi = 0; pi < 4; ++pi) {
        auto pv = params[pi]->data();
        auto pg = grads[pi]->data();
        auto pm = adam[static_cast<std::size_t>(pi)].m.data();
        auto pvv = adam[static_cast<std::size_t>(pi)].v.data();
        for (std::size_t j = 0; j < pv.size(); ++j) {
          const float g = pg[j] / count;
          pm[j] = beta1 * pm[j] + (1 - beta1) * g;
          pvv[j] = beta2 * pvv[j] + (1 - beta2) * g * g;
          const float mhat = pm[j] / bc1;
          const float vhat = pvv[j] / bc2;
          pv[j] -= opt.lr * mhat / (std::sqrt(vhat) + eps);
        }
      }
    }
    last_epoch_mse = static_cast<float>(se / n);
  }
  return last_epoch_mse;
}

float MlpRegressor::mse(const Tensor& x, const Tensor& y) const {
  NVM_CHECK_EQ(x.rank(), 2u);
  NVM_CHECK_EQ(x.dim(0), y.numel());
  double se = 0.0;
  for (std::int64_t i = 0; i < x.dim(0); ++i) {
    const float p = predict({x.raw() + i * in_dim_,
                             static_cast<std::size_t>(in_dim_)});
    const float err = p - y[i];
    se += static_cast<double>(err) * err;
  }
  return static_cast<float>(se / std::max<std::int64_t>(1, x.dim(0)));
}

}  // namespace nvm::xbar
