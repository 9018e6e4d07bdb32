// Crossbar MVM model interface.
//
// Mirrors real deployment: a conductance matrix is *programmed* once,
// yielding a ProgrammedXbar handle that can evaluate many input vectors.
// Programming is where model-specific precomputation happens (column
// conductance sums, surrogate feature normalizers, ...).
//
// Conventions: g is (rows, cols) in siemens with entries in
// [g_off, g_on]; v is (rows) in volts with entries in [0, v_read];
// the result is (cols) column currents in amps.
#pragma once

#include <memory>
#include <string>

#include "tensor/tensor.h"
#include "xbar/config.h"

namespace nvm::simd {
class Workspace;
}

namespace nvm::xbar {

class XbarStream;

/// Integer view of a DAC voltage block (DESIGN.md §13): the voltages the
/// tiled GEMM would apply are exactly v_unit * float(chunk[i*n + k]) with
/// chunk codes in [0, 2^stream_bits - 1]. Models that understand the code
/// alphabet can exploit it (e.g. per-cell lookup tables over the <= 128
/// possible codes) while remaining bit-identical to evaluating the
/// materialized float voltages.
struct ChunkBlock {
  const std::int8_t* chunk = nullptr;    ///< (rows, n) row-major DAC codes
  const std::int8_t* row_max = nullptr;  ///< per-row max code (rows entries)
  std::int64_t rows = 0;
  std::int64_t n = 0;
  float v_unit = 0.0f;  ///< volts per code step
};

/// A compiled, input-independent evaluation kernel for the chunk MVM of
/// one programmed crossbar (see ProgrammedXbar::compile_chunk_kernel).
/// Where mvm_chunks_active rebuilds its per-cell code tables on every
/// call, a fused kernel precomputes everything that depends only on
/// programmed state and the DAC code alphabet, leaving just the per-cell
/// gather at run time. Contract: run() writes the same (cols_used x n)
/// currents mvm_chunks_active would return — bit-identical — into
/// caller-provided scratch (row j of the tile's output at out + j*n), and
/// performs the same metric/health accounting (count_mvm_multi_columns +
/// non-finite scrub). Kernels borrow the xbar (keep it alive) and are
/// immutable after compile: run() is safe to call concurrently.
class FusedChunkKernel {
 public:
  virtual ~FusedChunkKernel() = default;

  /// Evaluates the chunk block; `cb.v_unit` must equal the v_unit the
  /// kernel was compiled for and codes must stay <= the compiled
  /// max_code. `out` must hold cols_used * n floats (fully overwritten).
  /// `ws` provides the kernel's scratch — planned per task by the caller
  /// instead of ad-hoc thread_local buffers (kernels use double slot 11
  /// so they never alias the tiled-GEMM's own slots).
  virtual void run(const ChunkBlock& cb, std::int64_t rows_used,
                   std::int64_t cols_used, float* out,
                   simd::Workspace& ws) const = 0;
};

/// A conductance matrix resident on a (model of a) crossbar.
///
/// Thread-safety contract: after program() returns, a ProgrammedXbar is
/// immutable — mvm()/mvm_batch()/mvm_batch_active()/mvm_multi*() must be
/// safe to call concurrently on the same object. The parallel execution
/// layer relies on this in two places: the default mvm_batch() fans input
/// vectors across the thread pool, and puma::TiledMatrix::matmul evaluates
/// programmed tiles concurrently. Implementations needing mutable solve
/// state keep it per-thread (see SolverProgrammed's thread-local
/// workspace) or per-stream (see open_stream()).
class ProgrammedXbar {
 public:
  virtual ~ProgrammedXbar() = default;

  /// Single-vector MVM: (rows) -> (cols). Must be const-like (see class
  /// comment): no observable mutation of shared state.
  virtual Tensor mvm(const Tensor& v) = 0;

  /// Batched MVM: v_batch is (rows, n) -> (cols, n). Default evaluates
  /// each column through mvm(), fanning the independent columns across
  /// nvm::parallel_for; results are bit-identical for any thread count.
  virtual Tensor mvm_batch(const Tensor& v_batch);

  /// Batched MVM with an activity hint for partially-used tiles: rows
  /// beyond `rows_used` are guaranteed to carry zero volts and columns
  /// beyond `cols_used` will never be read (their outputs may be left
  /// zero). Models may exploit this to skip arithmetic whose contribution
  /// is exactly zero; the physics (column loading by unused g_off devices)
  /// is unchanged because programmed state already includes them.
  /// Default ignores the hint.
  virtual Tensor mvm_batch_active(const Tensor& v_batch,
                                  std::int64_t rows_used,
                                  std::int64_t cols_used);

  /// Multi-RHS MVM evaluated on the CALLING thread: v_block is (rows, n)
  /// -> (cols, n). Contract: bit-identical to evaluating mvm() per column
  /// (the blocked overrides vectorize across columns while keeping each
  /// column's accumulation order unchanged). This is the primitive the
  /// tiled GEMM drives per tile-slot task; unlike mvm_batch() it never
  /// touches the thread pool. Default loops mvm().
  virtual Tensor mvm_multi(const Tensor& v_block);

  /// mvm_multi with the same activity hint semantics as
  /// mvm_batch_active(). Default ignores the hint.
  virtual Tensor mvm_multi_active(const Tensor& v_block,
                                  std::int64_t rows_used,
                                  std::int64_t cols_used);

  /// mvm_multi_active driven by integer DAC codes instead of materialized
  /// voltages. Contract: bit-identical to mvm_multi_active on the float
  /// block volts[i][k] = cb.v_unit * float(cb.chunk[i*n + k]). The default
  /// materializes exactly that block and forwards; models override to
  /// exploit the small code alphabet (see FastNoiseModel).
  virtual Tensor mvm_chunks_active(const ChunkBlock& cb,
                                   std::int64_t rows_used,
                                   std::int64_t cols_used);

  /// Compiles a fused, input-independent kernel for mvm_chunks_active
  /// with DAC step `v_unit` and codes in [0, max_code] (puma::TiledMatrix
  /// calls this once per programmed tile slot). Returns nullptr when
  /// the model has no profitable fused form (the default) — callers fall
  /// back to the stream path. Non-null kernels are bit-identical to
  /// mvm_chunks_active by the FusedChunkKernel contract.
  virtual std::unique_ptr<FusedChunkKernel> compile_chunk_kernel(
      float v_unit, int max_code) const;

  /// Opens an evaluation stream for a sequence of RELATED v-blocks (the
  /// DAC bit-stream chunks of one tiled-GEMM input). A stream may carry
  /// model state between calls — e.g. the circuit solver warm-starts each
  /// solve from the previous chunk's node voltages — so results may differ
  /// from cold mvm_multi_active() within the model's solve tolerance. The
  /// default stream is stateless and forwards to mvm_multi_active()
  /// verbatim. Streams borrow the xbar (keep it alive) and are NOT
  /// thread-safe; use one stream per thread/task.
  virtual std::unique_ptr<XbarStream> open_stream();
};

/// Stateful evaluation handle from ProgrammedXbar::open_stream().
class XbarStream {
 public:
  virtual ~XbarStream() = default;

  /// Same shapes and hint semantics as ProgrammedXbar::mvm_multi_active.
  virtual Tensor mvm_multi_active(const Tensor& v_block,
                                  std::int64_t rows_used,
                                  std::int64_t cols_used) = 0;

  /// Same contract as ProgrammedXbar::mvm_chunks_active (bit-identical to
  /// mvm_multi_active on the materialized voltages); default materializes
  /// and forwards through this stream.
  virtual Tensor mvm_chunks_active(const ChunkBlock& cb,
                                   std::int64_t rows_used,
                                   std::int64_t cols_used);
};

/// Factory for programmed crossbars of one electrical configuration.
class MvmModel {
 public:
  virtual ~MvmModel() = default;

  /// Programs `g` onto a crossbar; g must be (rows, cols) within config
  /// conductance bounds (validated). Must be safe to call concurrently on
  /// one model: puma::TiledMatrix programs its tile slots in parallel, so
  /// program() may not touch shared mutable state, and its result may not
  /// depend on call order (derive per-device randomness from the model's
  /// seeds and the cell position, as VariationModel does).
  virtual std::unique_ptr<ProgrammedXbar> program(const Tensor& g) const = 0;

  virtual const CrossbarConfig& config() const = 0;
  virtual std::string name() const = 0;

  /// True when this model's MVM is the exact digital dot product (no
  /// analog non-ideality beyond conductance mapping). The tiled GEMM uses
  /// this to route the whole evaluation through the integer bit-slice
  /// pipeline (DESIGN.md §13) without programming-model round trips.
  virtual bool is_ideal() const { return false; }

  /// Every analog model takes integer DAC codes (mvm_chunks_active: the
  /// default materializes the volts, an override can exploit the codes),
  /// so the tiled GEMM does not ask. Kept only because benchmark-side
  /// decorators override it; always true.
  virtual bool supports_chunk_mvm() const { return true; }
};

/// Validates shape and conductance range of a matrix to be programmed.
void validate_conductances(const Tensor& g, const CrossbarConfig& cfg);

/// Tallies `n` columns under xbar/mvm_multi_columns; every mvm_multi*
/// override calls this so the metric stays model-independent.
void count_mvm_multi_columns(std::int64_t n);

/// Scrubs NaN/Inf entries from a crossbar output (replaced with 0 — a
/// dead column reads no current), counting them under
/// HealthCounter::NonFiniteOutput with a throttled warning tagged `who`.
/// Returns the number of entries scrubbed. Every analog model output
/// passes through this guard so a diverged solve or a wild surrogate
/// prediction degrades instead of propagating NaN into the network.
std::int64_t guard_output_finite(Tensor& out, const char* who);

/// Raw-buffer overload for kernels that write into caller scratch instead
/// of a Tensor (same scrub + health accounting).
std::int64_t guard_output_finite(float* out, std::int64_t n, const char* who);

/// Exact I_j = sum_i V_i * G_ij — "accurate digital" reference.
class IdealXbarModel final : public MvmModel {
 public:
  explicit IdealXbarModel(CrossbarConfig cfg) : cfg_(std::move(cfg)) {}

  std::unique_ptr<ProgrammedXbar> program(const Tensor& g) const override;
  const CrossbarConfig& config() const override { return cfg_; }
  std::string name() const override { return "ideal"; }
  bool is_ideal() const override { return true; }

 private:
  CrossbarConfig cfg_;
};

/// Ideal MVM as a free function (used by models to compute I_ideal).
Tensor ideal_mvm(const Tensor& g, const Tensor& v);
Tensor ideal_mvm_batch(const Tensor& g, const Tensor& v_batch);

}  // namespace nvm::xbar
