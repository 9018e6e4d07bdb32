// MvmModel decorator for fused-vs-unfused A/B benches: it forwards every
// evaluation virtual to the wrapped model's crossbars but hides
// compile_chunk_kernel, so a TiledMatrix over it runs every tile slot
// through the tile's stream (mvm_chunks_active per pass) instead of a
// compiled fused kernel. Outputs are bit-identical to the fused run.
#pragma once

#include <memory>
#include <string>

#include "xbar/mvm_model.h"

namespace nvm::bench {

class UnfusedXbar final : public xbar::ProgrammedXbar {
 public:
  explicit UnfusedXbar(std::unique_ptr<xbar::ProgrammedXbar> inner)
      : inner_(std::move(inner)) {}
  Tensor mvm(const Tensor& v) override { return inner_->mvm(v); }
  Tensor mvm_batch(const Tensor& v) override { return inner_->mvm_batch(v); }
  Tensor mvm_batch_active(const Tensor& v, std::int64_t rows_used,
                          std::int64_t cols_used) override {
    return inner_->mvm_batch_active(v, rows_used, cols_used);
  }
  Tensor mvm_multi(const Tensor& v) override { return inner_->mvm_multi(v); }
  Tensor mvm_multi_active(const Tensor& v, std::int64_t rows_used,
                          std::int64_t cols_used) override {
    return inner_->mvm_multi_active(v, rows_used, cols_used);
  }
  Tensor mvm_chunks_active(const xbar::ChunkBlock& cb, std::int64_t rows_used,
                           std::int64_t cols_used) override {
    return inner_->mvm_chunks_active(cb, rows_used, cols_used);
  }
  std::unique_ptr<xbar::XbarStream> open_stream() override {
    return inner_->open_stream();
  }

 private:
  std::unique_ptr<xbar::ProgrammedXbar> inner_;
};

class UnfusedModel final : public xbar::MvmModel {
 public:
  explicit UnfusedModel(std::shared_ptr<const xbar::MvmModel> inner)
      : inner_(std::move(inner)) {}
  std::unique_ptr<xbar::ProgrammedXbar> program(
      const Tensor& g) const override {
    return std::make_unique<UnfusedXbar>(inner_->program(g));
  }
  const xbar::CrossbarConfig& config() const override {
    return inner_->config();
  }
  std::string name() const override { return inner_->name(); }
  bool is_ideal() const override { return inner_->is_ideal(); }

 private:
  std::shared_ptr<const xbar::MvmModel> inner_;
};

}  // namespace nvm::bench
