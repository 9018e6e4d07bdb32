// Benchmark-side decorators around the program's layer interfaces. Each
// forwards every virtual to the wrapped object, so the program takes the
// same code path it takes undecorated, and records timing on the way.
#pragma once

#include <memory>
#include <vector>

#include "attack/attack_model.h"
#include "bench.h"
#include "core/evaluator.h"
#include "serve/serve.h"
#include "xbar/mvm_model.h"

namespace paperbench {

/// Counters of one crossbar-model layer: MVM calls (with the union of
/// their busy intervals recorded as xbar spans) and input columns.
struct XbarStats {
  explicit XbarStats(Tracer& t) : cov(t, "xbar", "xbar.mvm") {}
  Coverage cov;
  std::atomic<std::int64_t> cols{0};
};

namespace detail {
// Times one call into the wrapped layer, also when it throws.
class CallTimer {
 public:
  CallTimer(XbarStats& s, std::int64_t cols) : s_(s), t_(s.cov.enter()) {
    s_.cols.fetch_add(cols, std::memory_order_relaxed);
  }
  ~CallTimer() { s_.cov.exit(t_); }
  CallTimer(const CallTimer&) = delete;
  CallTimer& operator=(const CallTimer&) = delete;

 private:
  XbarStats& s_;
  std::int64_t t_;
};

inline std::int64_t block_cols(const nvm::Tensor& v) {
  return v.rank() >= 2 ? v.shape()[1] : 1;
}

class TracedKernel final : public nvm::xbar::FusedChunkKernel {
 public:
  TracedKernel(std::unique_ptr<nvm::xbar::FusedChunkKernel> inner,
               XbarStats& s)
      : inner_(std::move(inner)), s_(s) {}
  void run(const nvm::xbar::ChunkBlock& cb, std::int64_t rows_used,
           std::int64_t cols_used, float* out,
           nvm::simd::Workspace& ws) const override {
    CallTimer t(s_, cb.n);
    inner_->run(cb, rows_used, cols_used, out, ws);
  }

 private:
  std::unique_ptr<nvm::xbar::FusedChunkKernel> inner_;
  XbarStats& s_;
};

class TracedStream final : public nvm::xbar::XbarStream {
 public:
  TracedStream(std::unique_ptr<nvm::xbar::XbarStream> inner, XbarStats& s)
      : inner_(std::move(inner)), s_(s) {}
  nvm::Tensor mvm_multi_active(const nvm::Tensor& v, std::int64_t rows_used,
                               std::int64_t cols_used) override {
    CallTimer t(s_, block_cols(v));
    return inner_->mvm_multi_active(v, rows_used, cols_used);
  }
  nvm::Tensor mvm_chunks_active(const nvm::xbar::ChunkBlock& cb,
                                std::int64_t rows_used,
                                std::int64_t cols_used) override {
    CallTimer t(s_, cb.n);
    return inner_->mvm_chunks_active(cb, rows_used, cols_used);
  }

 private:
  std::unique_ptr<nvm::xbar::XbarStream> inner_;
  XbarStats& s_;
};

class TracedXbar final : public nvm::xbar::ProgrammedXbar {
 public:
  TracedXbar(std::unique_ptr<nvm::xbar::ProgrammedXbar> inner, XbarStats& s)
      : inner_(std::move(inner)), s_(s) {}
  nvm::Tensor mvm(const nvm::Tensor& v) override {
    CallTimer t(s_, 1);
    return inner_->mvm(v);
  }
  nvm::Tensor mvm_batch(const nvm::Tensor& v) override {
    CallTimer t(s_, block_cols(v));
    return inner_->mvm_batch(v);
  }
  nvm::Tensor mvm_batch_active(const nvm::Tensor& v, std::int64_t rows_used,
                               std::int64_t cols_used) override {
    CallTimer t(s_, block_cols(v));
    return inner_->mvm_batch_active(v, rows_used, cols_used);
  }
  nvm::Tensor mvm_multi(const nvm::Tensor& v) override {
    CallTimer t(s_, block_cols(v));
    return inner_->mvm_multi(v);
  }
  nvm::Tensor mvm_multi_active(const nvm::Tensor& v, std::int64_t rows_used,
                               std::int64_t cols_used) override {
    CallTimer t(s_, block_cols(v));
    return inner_->mvm_multi_active(v, rows_used, cols_used);
  }
  nvm::Tensor mvm_chunks_active(const nvm::xbar::ChunkBlock& cb,
                                std::int64_t rows_used,
                                std::int64_t cols_used) override {
    CallTimer t(s_, cb.n);
    return inner_->mvm_chunks_active(cb, rows_used, cols_used);
  }
  std::unique_ptr<nvm::xbar::FusedChunkKernel> compile_chunk_kernel(
      float v_unit, int max_code) const override {
    auto k = inner_->compile_chunk_kernel(v_unit, max_code);
    if (k == nullptr) return nullptr;
    return std::make_unique<TracedKernel>(std::move(k), s_);
  }
  std::unique_ptr<nvm::xbar::XbarStream> open_stream() override {
    return std::make_unique<TracedStream>(inner_->open_stream(), s_);
  }

 private:
  std::unique_ptr<nvm::xbar::ProgrammedXbar> inner_;
  XbarStats& s_;
};
}  // namespace detail

/// MvmModel decorator: programs through the wrapped model and wraps each
/// programmed crossbar, its streams and its fused kernels. name(),
/// config(), is_ideal() and supports_chunk_mvm() are forwarded, so cache
/// keys and path selection see the wrapped model.
class TracedMvmModel final : public nvm::xbar::MvmModel {
 public:
  TracedMvmModel(std::shared_ptr<const nvm::xbar::MvmModel> inner,
                 XbarStats& s)
      : inner_(std::move(inner)), s_(s) {}
  std::unique_ptr<nvm::xbar::ProgrammedXbar> program(
      const nvm::Tensor& g) const override {
    return std::make_unique<detail::TracedXbar>(inner_->program(g), s_);
  }
  const nvm::xbar::CrossbarConfig& config() const override {
    return inner_->config();
  }
  std::string name() const override { return inner_->name(); }
  bool is_ideal() const override { return inner_->is_ideal(); }
  bool supports_chunk_mvm() const override {
    return inner_->supports_chunk_mvm();
  }

 private:
  std::shared_ptr<const nvm::xbar::MvmModel> inner_;
  XbarStats& s_;
};

/// AttackModel decorator: an nn.logits / nn.input_grad span per query
/// (when tracing), and the input-gradient latency in ms (always).
class TimedAttackModel final : public nvm::attack::AttackModel {
 public:
  TimedAttackModel(nvm::attack::AttackModel& inner, Tracer* t)
      : inner_(inner), t_(t) {}
  nvm::Tensor logits(const nvm::Tensor& x) override {
    Scope s(t_, "nn", "nn.logits", item);
    return inner_.logits(x);
  }
  nvm::Tensor loss_input_grad(const nvm::Tensor& x, std::int64_t label,
                              float* loss_out = nullptr) override {
    Scope s(t_, "nn", "nn.input_grad", item);
    const std::int64_t t0 = now_ns();
    nvm::Tensor g = inner_.loss_input_grad(x, label, loss_out);
    grad_ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
    return g;
  }

  std::int64_t item = -1;  ///< image the next queries belong to
  std::vector<double> grad_ms;

 private:
  nvm::attack::AttackModel& inner_;
  Tracer* t_;
};

/// ForwardFn decorator: a core.forward span per image (when tracing),
/// numbered in call order, and the forward latency in ms (always).
inline nvm::core::ForwardFn timed_forward(nvm::core::ForwardFn fn, Tracer* t,
                                          std::vector<double>& ms) {
  auto next = std::make_shared<std::int64_t>(0);
  return [fn = std::move(fn), t, &ms, next](const nvm::Tensor& x) {
    Scope s(t, "core", "core.forward", (*next)++);
    const std::int64_t t0 = now_ns();
    nvm::Tensor y = fn(x);
    ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
    return y;
  };
}

/// BatchClassifier decorator: a puma.logits_block span per micro-batch,
/// opened on the server's scheduler thread.
class TracedBackend final : public nvm::serve::BatchClassifier {
 public:
  TracedBackend(nvm::serve::BatchClassifier& inner, Tracer& t)
      : inner_(inner), t_(t) {}
  std::int64_t feature_dim() const override { return inner_.feature_dim(); }
  std::int64_t classes() const override { return inner_.classes(); }
  nvm::Tensor logits_block(const nvm::Tensor& x) override {
    Scope s(&t_, "puma", "puma.logits_block", batches_++);
    return inner_.logits_block(x);
  }

 private:
  nvm::serve::BatchClassifier& inner_;
  Tracer& t_;
  std::int64_t batches_ = 0;
};

}  // namespace paperbench
