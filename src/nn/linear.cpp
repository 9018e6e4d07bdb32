#include "nn/linear.h"

#include <cmath>

#include "common/check.h"
#include "tensor/ops.h"

namespace nvm::nn {

Linear::Linear(std::int64_t in_features, std::int64_t out_features, Rng& rng)
    : in_f_(in_features),
      out_f_(out_features),
      weight_(Tensor::normal({out_features, in_features}, 0.0f,
                             std::sqrt(1.0f / static_cast<float>(in_features)),
                             rng)),
      bias_(Tensor::zeros({out_features}), /*decay_flag=*/false),
      engine_(ideal_engine()) {
  NVM_CHECK(in_features > 0 && out_features > 0);
}

void Linear::set_engine(std::shared_ptr<MvmEngine> engine) {
  NVM_CHECK(engine != nullptr);
  engine_ = std::move(engine);
}

Tensor Linear::forward(const Tensor& x, Mode mode) {
  NVM_CHECK_EQ(x.numel(), in_f_);
  cached_in_ = x.reshaped({in_f_});
  last_mode_ = mode;
  Tensor y = engine_->matmul(weight_.value, cached_in_.reshaped({in_f_, 1}));
  y.reshape({out_f_});
  y += bias_.value;
  return apply_eval_hook(std::move(y), mode);
}

Tensor Linear::backward(const Tensor& grad_out) {
  NVM_CHECK(cached_in_.numel() > 0, "backward before forward");
  Tensor g = grad_out.reshaped({out_f_});
  if (last_mode_ == Mode::Train) {
    bias_.grad += g;
    // dW = g x^T
    weight_.grad +=
        matmul(g.reshaped({out_f_, 1}), cached_in_.reshaped({1, in_f_}));
  }
  // dx = W^T g
  return matvec(transpose2d(weight_.value), g);
}

}  // namespace nvm::nn
