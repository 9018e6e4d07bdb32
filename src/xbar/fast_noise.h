// Closed-form analytical non-ideality model.
//
// A cheaper alternative to the GENIEx surrogate that approximates the two
// dominant parasitic effects directly:
//   1. row-side IR drop: each input voltage divides between the source
//      resistance plus accumulated row wire and the row's device load, so
//      the voltage reaching column j of row i is attenuated by
//      1 / (1 + (R_source + j*R_wire) * Growsum_i);
//   2. column-side drop: the summed column current develops a voltage
//      across the sink resistance plus average column wire, reducing the
//      effective device drops by 1 / (1 + (R_sink + rows/2*R_wire) * Gsum_j).
// Device nonlinearity is applied per cell via the sinh secant term.
//
// In the experiments this model doubles as the "different NVM technology"
// the adaptive attacker may hold (paper §IV-B): it tracks the same physics
// but deviates in detail from the solver/GENIEx stack.
#pragma once

#include "xbar/mvm_model.h"

namespace nvm::xbar {

class FastNoiseModel final : public MvmModel {
 public:
  explicit FastNoiseModel(CrossbarConfig cfg) : cfg_(std::move(cfg)) {}

  std::unique_ptr<ProgrammedXbar> program(const Tensor& g) const override;
  const CrossbarConfig& config() const override { return cfg_; }
  std::string name() const override { return "fast_noise"; }

 private:
  CrossbarConfig cfg_;
};

}  // namespace nvm::xbar
