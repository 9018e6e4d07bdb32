// Small dense MLP regressor (one tanh hidden layer) with Adam training.
//
// This is the "2 layer perceptron network" of the GENIEx methodology
// (paper §II-A): it learns the mapping from crossbar state features to the
// non-ideal output current deviation. It is intentionally independent of
// the nn:: layer stack — inference here is a hot inner loop of every
// crossbar MVM, so it uses a fast tanh approximation consistently in both
// training and inference.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"
#include "common/serialize.h"
#include "tensor/tensor.h"

namespace nvm::xbar {

/// Rational tanh approximation, max abs error ~2e-3, ~10x faster than
/// std::tanh. The network is trained with the same function, so the
/// approximation error is absorbed by the fit.
float fast_tanh(float x);

struct MlpTrainOptions {
  std::int64_t epochs = 40;
  std::int64_t batch = 64;
  float lr = 3e-3f;
  std::uint64_t seed = 7;
};

/// predict_block pads the sample dimension to a multiple of this (one
/// AVX-512 vector, a whole number of AVX2/NEON vectors), so every sample
/// runs through the gemm kernels' vector body whatever the batch width.
inline constexpr std::int64_t kMlpSamplePad = 16;

class MlpRegressor {
 public:
  /// Xavier-initialized in_dim -> hidden(tanh) -> 1 network.
  MlpRegressor(std::int64_t in_dim, std::int64_t hidden, Rng& rng);

  /// Deserializing constructor.
  static MlpRegressor load(BinaryReader& r);
  void save(BinaryWriter& w) const;

  std::int64_t in_dim() const { return in_dim_; }
  std::int64_t hidden() const { return hidden_; }
  const Tensor& w1() const { return w1_; }  ///< (hidden, in_dim)
  const Tensor& b1() const { return b1_; }  ///< (hidden)
  const Tensor& w2() const { return w2_; }  ///< (hidden)
  float b2() const { return b2_[0]; }

  /// Predicts a single value from `in_dim` features. Delegates to
  /// predict_block with n = 1, so single and batched predictions are one
  /// code path (bit-identical by construction).
  float predict(std::span<const float> features) const;

  /// Batched predict over `n` samples laid out FEATURE-MAJOR:
  /// features_t[i * n + s] is feature i of sample s. Writes one prediction
  /// per sample into out[0..n). Runs on the widest usable nvm::simd gemm
  /// tier; samples are staged into a kMlpSamplePad-padded block so every
  /// sample's accumulation takes the vector FMA body regardless of n —
  /// each out[s] is a pure function of sample s's features, independent of
  /// batch width. Across simd
  /// tiers the result carries the gemm kernels' [~ulp] parity contract
  /// (vector tiers agree bit-for-bit; the scalar tier differs by a few
  /// ULP because its multiply-adds are unfused).
  void predict_block(const float* features_t, std::int64_t n,
                     float* out) const;

  /// Adam training on MSE. `x` is (n, in_dim), `y` is (n). Returns final
  /// epoch mean squared error.
  float train(const Tensor& x, const Tensor& y, const MlpTrainOptions& opt);

  /// Mean squared error over a dataset.
  float mse(const Tensor& x, const Tensor& y) const;

 private:
  std::int64_t in_dim_, hidden_;
  Tensor w1_, b1_;  // (hidden, in), (hidden)
  Tensor w2_, b2_;  // (hidden), (1)
};

}  // namespace nvm::xbar
