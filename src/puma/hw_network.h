// Whole-network crossbar deployment (the PUMA functional-simulator entry
// point used by all experiments).
//
// HwDeployment maps every Conv2d/Linear GEMM of a trained network onto
// crossbar tiles of the given MvmModel:
//   1. DAC calibration: the network runs a few images with recording
//      engines to fix each layer's activation range;
//   2. every MVM layer gets a CrossbarMvmEngine (tiles program lazily on
//      the layer's next forward pass);
//   3. optionally (HwConfig::bn_reestimate, default off) BatchNorm running
//      statistics are re-estimated on the non-ideal hardware — the
//      standard deployment-time BN recalibration that recovers most clean
//      accuracy while leaving the input-dependent deviation intact;
//   4. optionally (HwConfig::gain_trim, default off) a per-layer scalar
//      output gain is least-squares fitted to trim the systematic current
//      loss (compensation in the style of the paper's refs [16][17][36]).
//
// The deployed network computes non-ideal forward passes; backward passes
// remain the ideal derivative evaluated at the recorded (non-ideal)
// activations — exactly the paper's "Hardware-in-Loop" gradient (§III-C2).
//
// Destroying the HwDeployment restores the network exactly: ideal engines
// and the pre-deployment BatchNorm statistics.
#pragma once

#include <span>

#include "common/health.h"
#include "nn/network.h"
#include "puma/engine.h"

namespace nvm::puma {

struct DeployStats {
  std::int64_t mvm_layers = 0;
  /// Per-layer calibrated input scales, in layer visit order.
  std::vector<float> input_scales;
  /// Per-layer fitted digital output gains (only when HwConfig::gain_trim).
  std::vector<float> output_gains;
  /// Failure-handling activity during deployment itself (calibration, BN
  /// re-estimation, gain trim): nonzero means the hardware model already
  /// degraded before the first real inference — worth knowing before
  /// trusting accuracy numbers measured on this deployment.
  HealthSnapshot health;
};

class HwDeployment {
 public:
  /// Deploys `net` onto `model` crossbars. `calib_images` (a handful of
  /// training images) drives DAC calibration and BN re-estimation; pass an
  /// empty span to skip both (dynamic input scaling, stale BN statistics).
  HwDeployment(nn::Network& net, std::shared_ptr<const xbar::MvmModel> model,
               std::span<const Tensor> calib_images, const HwConfig& hw = {});

  /// Restores ideal engines and the original BatchNorm statistics.
  ~HwDeployment();

  HwDeployment(const HwDeployment&) = delete;
  HwDeployment& operator=(const HwDeployment&) = delete;

  const DeployStats& stats() const { return stats_; }

 private:
  nn::Network& net_;
  DeployStats stats_;
  // Saved (running_mean, running_var) per BatchNorm2d in visit order.
  std::vector<std::pair<Tensor, Tensor>> saved_bn_;
};

}  // namespace nvm::puma
