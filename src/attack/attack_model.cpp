#include "attack/attack_model.h"

#include "common/check.h"
#include "nn/loss.h"

namespace nvm::attack {

Tensor NetworkAttackModel::logits(const Tensor& x) {
  return net_->forward(x, nn::Mode::Eval);
}

Tensor NetworkAttackModel::loss_input_grad(const Tensor& x,
                                           std::int64_t label,
                                           float* loss_out) {
  Tensor out = net_->forward(x, nn::Mode::Eval);
  nn::LossGrad lg = nn::cross_entropy(out, label);
  if (loss_out != nullptr) *loss_out = lg.loss;
  // Input-only after the Eval forward: parameter grads stay untouched.
  return net_->backward(lg.grad_logits);
}

EnsembleAttackModel::EnsembleAttackModel(std::vector<nn::Network*> members)
    : members_(std::move(members)) {
  NVM_CHECK(!members_.empty());
  for (auto* m : members_) NVM_CHECK(m != nullptr);
}

Tensor EnsembleAttackModel::logits(const Tensor& x) {
  Tensor sum = members_[0]->forward(x, nn::Mode::Eval);
  for (std::size_t i = 1; i < members_.size(); ++i)
    sum += members_[i]->forward(x, nn::Mode::Eval);
  sum *= 1.0f / static_cast<float>(members_.size());
  return sum;
}

Tensor EnsembleAttackModel::loss_input_grad(const Tensor& x,
                                            std::int64_t label,
                                            float* loss_out) {
  float total_loss = 0.0f;
  Tensor grad;
  for (std::size_t i = 0; i < members_.size(); ++i) {
    Tensor out = members_[i]->forward(x, nn::Mode::Eval);
    nn::LossGrad lg = nn::cross_entropy(out, label);
    total_loss += lg.loss;
    Tensor gx = members_[i]->backward(lg.grad_logits);
    if (i == 0) {
      grad = std::move(gx);
    } else {
      grad += gx;
    }
  }
  if (loss_out != nullptr) *loss_out = total_loss;
  return grad;
}

}  // namespace nvm::attack
