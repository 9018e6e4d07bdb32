#include "attack/ensemble_bb.h"

#include <numeric>
#include <sstream>

#include "common/check.h"
#include "common/file_cache.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "nn/resnet.h"

namespace nvm::attack {

namespace {

/// Distillation training: soft-label cross-entropy against the victim's
/// softmax outputs.
void train_distilled(nn::Network& net, std::span<const Tensor> images,
                     std::span<const Tensor> soft_targets,
                     const EnsembleBbOptions& opt, std::uint64_t seed) {
  NVM_CHECK_EQ(images.size(), soft_targets.size());
  Rng rng(seed);
  nn::SgdConfig sgd_cfg;
  sgd_cfg.lr = opt.lr;
  sgd_cfg.momentum = opt.momentum;
  nn::Sgd sgd(net.params(), sgd_cfg);

  const std::int64_t n = static_cast<std::int64_t>(images.size());
  std::vector<std::int64_t> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);

  const auto freeze_epoch =
      static_cast<std::int64_t>(0.6f * static_cast<float>(opt.epochs));
  for (std::int64_t epoch = 0; epoch < opt.epochs; ++epoch) {
    if (epoch == opt.epochs / 2 || epoch == (3 * opt.epochs) / 4)
      sgd.set_lr(sgd.lr() * 0.1f);
    if (epoch == freeze_epoch) net.freeze_batchnorm();
    rng.shuffle(order);
    std::int64_t in_batch = 0;
    for (std::int64_t i = 0; i < n; ++i) {
      const auto idx = static_cast<std::size_t>(order[static_cast<std::size_t>(i)]);
      Tensor logits = net.forward(images[idx], nn::Mode::Train);
      nn::LossGrad lg = nn::cross_entropy_soft(logits, soft_targets[idx]);
      net.backward(lg.grad_logits);
      if (++in_batch == opt.batch || i == n - 1) {
        sgd.step(static_cast<float>(in_batch));
        in_batch = 0;
      }
    }
  }
}

}  // namespace

std::string surrogate_cache_tag(const EnsembleBbOptions& opt,
                                std::size_t n_images,
                                std::int64_t num_classes) {
  std::ostringstream os;
  os << "bb_n" << n_images << "_c" << num_classes << "_e" << opt.epochs
     << "_lr" << opt.lr << "_seed" << opt.seed << "_d";
  for (auto d : opt.depths) os << d << ".";
  os << "_w" << opt.widths[0] << "-" << opt.widths[1] << "-" << opt.widths[2]
     << "_b" << opt.batch << "_m" << opt.momentum;
  return os.str();
}

SurrogateEnsemble SurrogateEnsemble::distill(const QueryFn& victim,
                                             std::span<const Tensor> images,
                                             std::int64_t num_classes,
                                             const EnsembleBbOptions& opt,
                                             const std::string& cache_key) {
  NVM_CHECK(!images.empty());
  NVM_CHECK(!opt.depths.empty());

  SurrogateEnsemble out;
  Rng init_rng(opt.seed);
  for (std::size_t d = 0; d < opt.depths.size(); ++d) {
    nn::ResnetCifarSpec spec;
    spec.blocks_per_stage = opt.depths[d];
    spec.widths = opt.widths;
    spec.num_classes = num_classes;
    out.members_.push_back(std::make_unique<nn::Network>(
        nn::make_resnet_cifar(spec, init_rng)));
  }

  const std::string tag =
      surrogate_cache_tag(opt, images.size(), num_classes);
  if (!cache_key.empty()) {
    bool loaded = cache_load(
        "surrogates_" + cache_key + ".bin", tag, [&](BinaryReader& r) {
          for (auto& m : out.members_) m->load(r);
        });
    if (loaded) {
      NVM_LOG(Info) << "surrogate ensemble '" << cache_key << "' from cache";
      return out;
    }
  }

  // Build the synthetic dataset: one victim query per image.
  NVM_TRACE_SPAN("attack/ensemble/distill");
  static metrics::Counter& victim_queries =
      metrics::counter("attack/ensemble/victim_queries");
  victim_queries.add(images.size());
  NVM_LOG(Info) << "querying victim for " << images.size()
                << " synthetic labels";
  std::vector<Tensor> soft_targets;
  soft_targets.reserve(images.size());
  for (const Tensor& img : images) {
    Tensor logits = victim(img);
    NVM_CHECK_EQ(logits.numel(), num_classes);
    soft_targets.push_back(nn::softmax(logits));
  }

  for (std::size_t d = 0; d < out.members_.size(); ++d) {
    NVM_LOG(Info) << "distilling surrogate " << (d + 1) << "/"
                  << out.members_.size() << " (" << out.members_[d]->arch()
                  << ")";
    train_distilled(*out.members_[d], images, soft_targets, opt,
                    opt.seed + 100 * (d + 1));
  }

  if (!cache_key.empty()) {
    cache_store("surrogates_" + cache_key + ".bin", tag,
                [&](BinaryWriter& w) {
                  for (auto& m : out.members_) m->save(w);
                });
  }
  return out;
}

std::unique_ptr<EnsembleAttackModel> SurrogateEnsemble::attack_model() {
  std::vector<nn::Network*> raw;
  raw.reserve(members_.size());
  for (auto& m : members_) raw.push_back(m.get());
  return std::make_unique<EnsembleAttackModel>(std::move(raw));
}

}  // namespace nvm::attack
