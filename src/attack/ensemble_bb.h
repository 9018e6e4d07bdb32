// Ensemble Black-Box attack pipeline (paper §III-C1a, ref [34]).
//
// The attacker cannot see weights; they can query the victim and read
// logits. The pipeline:
//   1. query the victim on attacker-held images -> synthetic dataset of
//      (image, soft label) pairs;
//   2. distill several surrogate ResNets of different depths on it;
//   3. attack the "stack parallel" ensemble of surrogates with PGD and
//      transfer the images to the real target.
// Whether the victim queried in step 1 runs on accurate digital hardware
// or on the NVM crossbar decides non-adaptive vs adaptive (Table II).
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <string>

#include "attack/attack_model.h"

namespace nvm::attack {

/// Black-box query interface: image in, logits out.
using QueryFn = std::function<Tensor(const Tensor&)>;

struct EnsembleBbOptions {
  /// Surrogate depths as CIFAR-ResNet blocks-per-stage (1/2/3 ->
  /// ResNet-8/14/20 — the scaled analogue of the paper's ResNet-10/20/32).
  std::vector<std::int64_t> depths = {1, 2, 3};
  std::array<std::int64_t, 3> widths = {8, 16, 32};
  std::int64_t epochs = 10;
  std::int64_t batch = 32;
  float lr = 0.05f;
  float momentum = 0.9f;
  std::uint64_t seed = 21;
};

/// File-cache tag of a distilled ensemble: every option, the query count
/// and the class count. The victim and the query images are identified
/// only by the caller's cache key.
std::string surrogate_cache_tag(const EnsembleBbOptions& opt,
                                std::size_t n_images,
                                std::int64_t num_classes);

/// Trained surrogate set; owns the member networks.
class SurrogateEnsemble {
 public:
  /// Distills surrogates from victim queries. If `cache_key` is non-empty
  /// the trained members are cached on disk under that key (tag includes
  /// options and dataset size, so stale entries self-invalidate).
  static SurrogateEnsemble distill(const QueryFn& victim,
                                   std::span<const Tensor> images,
                                   std::int64_t num_classes,
                                   const EnsembleBbOptions& opt,
                                   const std::string& cache_key = "");

  /// Attack view over all members (stack-parallel ensemble).
  std::unique_ptr<EnsembleAttackModel> attack_model();

  std::size_t size() const { return members_.size(); }
  nn::Network& member(std::size_t i) { return *members_.at(i); }

 private:
  SurrogateEnsemble() = default;
  std::vector<std::unique_ptr<nn::Network>> members_;
};

}  // namespace nvm::attack
