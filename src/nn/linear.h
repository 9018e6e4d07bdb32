// Fully-connected layer (classifier head).
#pragma once

#include <memory>

#include "nn/layer.h"
#include "nn/mvm_engine.h"

namespace nvm::nn {

/// y = W x + b for a single 1-d input. The W x product routes through the
/// MVM engine (crossbar-mappable); the bias add stays digital, as in PUMA.
class Linear final : public Layer {
 public:
  Linear(std::int64_t in_features, std::int64_t out_features, Rng& rng);

  Tensor forward(const Tensor& x, Mode mode) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Param*> params() override { return {&weight_, &bias_}; }
  std::string name() const override { return "linear"; }

  void set_engine(std::shared_ptr<MvmEngine> engine);
  const Tensor& weight_matrix() const { return weight_.value; }

  std::int64_t in_features() const { return in_f_; }
  std::int64_t out_features() const { return out_f_; }

 private:
  std::int64_t in_f_, out_f_;
  Param weight_;  // (out, in)
  Param bias_;    // (out)
  std::shared_ptr<MvmEngine> engine_;
  Tensor cached_in_;
  Mode last_mode_ = Mode::Train;  // Eval: backward leaves the grads alone
};

}  // namespace nvm::nn
