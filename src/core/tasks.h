// Experiment task presets: the scaled-down analogues of the paper's three
// dataset/network pairs, plus cached training so every bench and example
// shares the same trained target models.
//
//   SCIFAR10   ~ CIFAR-10  + ResNet-20  (10 classes, 12x12)
//   SCIFAR100  ~ CIFAR-100 + ResNet-32  (20 classes, 12x12)
//   SIMAGENET  ~ ImageNet  + ResNet-18  (16 classes, 24x24)
//
// Counts are reduced for a single-core machine; REPRO_FULL=1 raises the
// dataset and evaluation sizes (see common/env.h).
#pragma once

#include <functional>
#include <string>

#include "data/synth_vision.h"
#include "nn/resnet.h"
#include "nn/trainer.h"

namespace nvm::core {

struct Task {
  std::string name;             ///< "SCIFAR10"
  std::string paper_analogue;   ///< "CIFAR-10 (ResNet-20)"
  data::DatasetSpec data_spec;
  std::function<nn::Network(Rng&)> make_network;
  nn::TrainConfig train_config;
  /// Images used for non-adaptive attack evaluation (paper: full test set
  /// for CIFAR, 1000 for ImageNet; reduced here).
  std::int64_t attack_eval_count = 96;
  /// Images used for the expensive hardware-in-loop attacks.
  std::int64_t adaptive_eval_count = 64;
  /// Attack-strength conversion: our images have far fewer pixels than the
  /// paper's, so an l_inf budget carries less total perturbation energy.
  /// epsilon_ours = eps_scale * epsilon_paper keeps the attacks in the
  /// paper's operating regime (see EXPERIMENTS.md).
  float eps_scale = 3.0f;

  /// Paper epsilon (in 1/255 units) -> our epsilon (fraction of [0,1]).
  float scaled_eps(float paper_eps_255) const {
    return eps_scale * paper_eps_255 / 255.0f;
  }
};

Task task_scifar10();
Task task_scifar100();
Task task_simagenet();
/// All three, in paper order.
std::vector<Task> all_tasks();

/// A task with its dataset generated and target network trained (from the
/// on-disk cache when available).
struct PreparedTask {
  Task task;
  data::Dataset dataset;
  nn::Network network;
  float clean_test_accuracy = 0.0f;

  /// Functionally-identical copy of the trained network (fresh layer
  /// objects, same weights), via a serialize roundtrip. Replica fan-outs
  /// (fault sweep, fleet evaluation) deploy crossbars on these copies so
  /// the prepared network itself is never mutated.
  nn::Network clone_network() const;

  /// First few training images — used to calibrate DAC ranges at
  /// crossbar deployment.
  std::vector<Tensor> calibration_images(std::int64_t count = 8) const;
  /// Test subset used for attack evaluation (first `count` test images).
  std::span<const Tensor> eval_images(std::int64_t count) const;
  std::span<const std::int64_t> eval_labels(std::int64_t count) const;
};

/// File-cache tag of `task`'s trained network (the file name carries
/// task.name): the architecture string and every data and training field
/// that changes the trained weights.
std::string model_cache_tag(const Task& task, const std::string& arch);

/// Generates the dataset and trains (or cache-loads) the target network.
PreparedTask prepare(const Task& task);

}  // namespace nvm::core
