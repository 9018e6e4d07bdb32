// Portable SIMD micro-kernel layer.
//
// Every hot inner loop of the analog stack — tiled-GEMM shift-add, ideal
// and fast-noise column evaluation, the GENIEx MLP forward, activation /
// ADC quantization — runs over the fixed set of kernels below. Up to four
// implementations exist per kernel: hand-written AVX2/FMA, AVX-512 and
// NEON tiers (each compiled in its own translation unit with per-file
// arch flags, see NVM_ENABLE_AVX2 / NVM_ENABLE_AVX512 / NVM_ENABLE_NEON)
// plus a scalar fallback. The active tier is chosen once per process at
// first use: cpuid + OS state (xgetbv) decide, and
// NVM_SIMD=scalar|avx2|avx512|neon overrides.
//
// Determinism contract (DESIGN.md §11, §13):
//   * Each kernel uses ONE deterministic accumulation tree. Results are
//     bit-identical across NVM_THREADS, across repeated runs of the same
//     build, and across calls with different blocking of the same data.
//   * Kernels marked [exact] below produce bit-identical results under
//     every NVM_SIMD tier: every lane performs the same float ops in the
//     same order as the scalar code (the whole build uses
//     -ffp-contract=off so the compiler cannot fuse the scalar side).
//   * Kernels marked [~ulp] use FMA in the vector bodies but plain
//     mul+add in the scalar fallback; per element they differ by at most
//     a few ULP of the running magnitude (tests/test_simd.cpp asserts the
//     bound pairwise across all usable tiers).
//   * Integer kernels (quantize_to_i8/i16, gemm_at_i8_i32acc,
//     adc_shift_add_i32) are [exact]: integer arithmetic has no rounding,
//     and their float epilogues mirror the scalar op sequence.
//
// Reduction trees:
//   * dot: 8 strided lanes (lane l accumulates elements l, l+8, ...)
//     reduced as ((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7)). Wider tiers fold
//     their extra lanes pairwise onto the 8-lane tree (still [~ulp]).
//   * gemm*: per output element, sequential accumulation over k (the
//     microtile blocks rows/columns, never the reduction).
//   * gemm_f64acc: sequential double accumulation over the inner index —
//     bit-identical to nvm::matvec's scalar loop per output element.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

namespace nvm::simd {

enum class Isa { Scalar = 0, Avx2 = 1, Avx512 = 2, Neon = 3 };

/// The instruction set all kernels dispatch to. Resolved once: NVM_SIMD
/// env override if set (an unusable request logs a warning and falls
/// back to the best safe tier), else the widest tier that is compiled in,
/// reported by cpuid, AND enabled by the OS (XCR0 via xgetbv — feature
/// bits alone do not prove the kernel saves ZMM/YMM state).
Isa active_isa();
const char* isa_name(Isa isa);

/// True when the AVX2 kernel TU was compiled in (NVM_ENABLE_AVX2).
bool avx2_compiled();
/// True when this CPU supports AVX2+FMA and the OS enables YMM state.
bool avx2_supported();
/// True when the AVX-512 kernel TU was compiled in (NVM_ENABLE_AVX512).
bool avx512_compiled();
/// True when this CPU supports AVX-512 F/BW/DQ/VL and the OS enables
/// ZMM + opmask state (XCR0 bits 1,2,5,6,7).
bool avx512_supported();
/// True when the NEON kernel TU was compiled in (NVM_ENABLE_NEON).
bool neon_compiled();
/// True on AArch64 (Advanced SIMD is baseline there).
bool neon_supported();
/// True when `isa` is both compiled in and usable on this machine.
bool isa_usable(Isa isa);

/// Test-only: forces the dispatch while alive (restores on destruction).
/// Requesting a tier that is not usable on this build/CPU throws
/// CheckError.
class ScopedIsaForTests {
 public:
  explicit ScopedIsaForTests(Isa isa);
  ~ScopedIsaForTests();
  ScopedIsaForTests(const ScopedIsaForTests&) = delete;
  ScopedIsaForTests& operator=(const ScopedIsaForTests&) = delete;

 private:
  int prev_;
};

// Vector kernels ----------------------------------------------------------

/// [~ulp] Dot product with the fixed 8-lane reduction tree.
float dot(const float* a, const float* b, std::int64_t n);

/// [~ulp] y[i] += alpha * x[i] (fused in the vector tiers).
void axpy(float* y, const float* x, float alpha, std::int64_t n);

/// [exact] y[i] += alpha * x[i] with an UNfused multiply-add — matches
/// legacy scalar accumulation loops bit-for-bit (GENIEx MLP forward).
void madd(float* y, const float* x, float alpha, std::int64_t n);

/// [exact] y[i] = alpha * x[i].
void scale(float* y, const float* x, float alpha, std::int64_t n);

/// [exact] In-place rational fast-tanh (same polynomial as
/// xbar::fast_tanh, which forwards to tanh_fast below).
void tanh_block(float* x, std::int64_t n);
/// Scalar fast-tanh; max abs error vs std::tanh ~2e-3.
float tanh_fast(float x);

// GEMM micro-kernels ------------------------------------------------------
// All operate on row-major storage with explicit leading dimensions and
// ACCUMULATE into C (callers zero C for a plain product). The vector
// implementations block into 4xW microtiles of broadcast-FMA (W = the
// tier's float lane count).

/// [~ulp] C(m x n, ldc) += A(m x k, lda) * B(k x n, ldb).
void gemm_accum(float* c, const float* a, const float* b, std::int64_t m,
                std::int64_t n, std::int64_t k, std::int64_t lda,
                std::int64_t ldb, std::int64_t ldc);

/// [~ulp] C(m x n, ldc) += A^T * B where A is (k x m, lda).
void gemm_at_accum(float* c, const float* a, const float* b, std::int64_t m,
                   std::int64_t n, std::int64_t k, std::int64_t lda,
                   std::int64_t ldb, std::int64_t ldc);

/// [~ulp] C(m x n, ldc) += A * B^T where B is (n x k, ldb); each element
/// is one dot() reduction tree.
void gemm_bt_accum(float* c, const float* a, const float* b, std::int64_t m,
                   std::int64_t n, std::int64_t k, std::int64_t lda,
                   std::int64_t ldb, std::int64_t ldc);

/// [~ulp] Fused two-layer tanh MLP over n samples:
///   y(n) += w2^T * tanh(H0 + A * X)
/// with H0 (hidden x n, ldh), A (hidden x k, lda), X (k x n, ldx) and w2
/// (hidden). Each hidden activation stays in registers: the (hidden x n)
/// block never goes to memory. Per output element it repeats the exact op
/// sequence of the composition
///   H = H0; gemm_accum(H, A, X); tanh_block(H); gemm_accum(y, w2, H, m=1)
/// on the same tier, scalar tails included, so it is bit-identical to that
/// composition on every tier; across tiers it inherits gemm's [~ulp]
/// class. (The GENIEx crossbar surrogate's first layer, tanh and output
/// layer, DESIGN.md §11.)
void mlp_tanh_accum(float* y, const float* h0, const float* a, const float* x,
                    const float* w2, std::int64_t hidden, std::int64_t n,
                    std::int64_t k, std::int64_t ldh, std::int64_t lda,
                    std::int64_t ldx);

/// [exact] out(m x n, ldo) = A(m x k, lda) * V(k x n, ldv) accumulated in
/// double per output element, sequential over k — bit-identical to the
/// scalar loop `for k: acc += double(a) * v;` and therefore to
/// nvm::matvec per column (double FMA of exact float*float products
/// rounds identically to mul-then-add). The analog models use this so
/// crossbar outputs do not depend on NVM_SIMD.
void gemm_f64acc(float* out, const float* a, const float* v, std::int64_t m,
                 std::int64_t n, std::int64_t k, std::int64_t lda,
                 std::int64_t ldv, std::int64_t ldo);

// Quantize / clamp kernels ------------------------------------------------

/// [exact] out[i] = round(clamp(x[i], 0, scale) / scale * qmax), with
/// round-half-away-from-zero semantics identical to std::round for the
/// non-negative domain; the float reference for quantize_to_i8/i16.
void quantize_affine(float* out, const float* x, std::int64_t n, float scale,
                     float qmax);

/// [exact] acc[i] += shift * (adc(cur[i]) - baseline[i]) where adc() is
/// the mid-tread ADC quantizer round(clamp(c,0,fs)/fs*steps)*fs/steps —
/// the fused ADC + baseline-subtract + shift-add of the tiled GEMM.
void adc_shift_add(float* acc, const float* cur, const float* baseline,
                   std::int64_t n, float full_scale, float steps, float shift);

// Integer bit-slice kernels (DESIGN.md §13) -------------------------------
// The tiled GEMM's operands are small non-negative integers (weight
// slices <= 2^slice_bits-1, DAC chunks <= 2^stream_bits-1), so the
// digital path can run them through narrow integer arithmetic. The float
// twins of these kernels are bit-identical on the same integer-valued
// inputs as long as every dot product stays below 2^24 (float adds of
// integers are exact there) — tests/test_simd.cpp pins that equivalence.

/// [exact] out[i] = int8(round(clamp(x[i], 0, scale) / scale * qmax)) —
/// the i8 twin of quantize_affine. Requires 0 < qmax <= 127.
void quantize_to_i8(std::int8_t* out, const float* x, std::int64_t n,
                    float scale, float qmax);

/// [exact] out[i] = int16(round(clamp(x[i], 0, scale) / scale * qmax)) —
/// the i16 twin of quantize_affine. Requires 0 < qmax <= 32767.
void quantize_to_i16(std::int16_t* out, const float* x, std::int64_t n,
                     float scale, float qmax);

/// [exact] C(m x n, ldc) += A^T * B in int32, where A is (k x m, lda) and
/// B is (k x n, ldb), both int8. Accumulation is exact integer
/// arithmetic, so the result is independent of tier and blocking. Callers
/// must keep |a|*|b|*k below INT32_MAX (the bit-slice path guarantees
/// <= 127*127*k).
void gemm_at_i8_i32acc(std::int32_t* c, const std::int8_t* a,
                       const std::int8_t* b, std::int64_t m, std::int64_t n,
                       std::int64_t k, std::int64_t lda, std::int64_t ldb,
                       std::int64_t ldc);

/// [exact] Fused integer ADC shift-add:
///   cur    = baseline[i] + dot_unit * float(dot[i])   (unfused mul+add)
///   acc[i] += shift * (adc(cur) - baseline[i])
/// with adc() the same mid-tread quantizer as adc_shift_add. This is the
/// digital epilogue of the int8 bit-slice pipeline; bit-identical to
/// composing the float ops on float(dot[i]).
void adc_shift_add_i32(float* acc, const std::int32_t* dot,
                       const float* baseline, std::int64_t n, float dot_unit,
                       float full_scale, float steps, float shift);

// Workspace ---------------------------------------------------------------

/// Reusable per-thread scratch for hot paths that would otherwise heap-
/// allocate per call. Each slot is an independent buffer with a stable
/// address across other slots' acquisitions; re-acquiring a slot
/// invalidates its previous span. An acquisition served without growing
/// the buffer counts one `simd/workspace/reuses` (a saved allocation).
/// Not thread-safe: declare instances as function-local thread_local.
class Workspace {
 public:
  static constexpr int kSlots = 12;

  /// Returns a span of `n` floats backed by slot `slot`. Contents are
  /// unspecified (callers fully overwrite before reading).
  std::span<float> floats(int slot, std::size_t n);
  /// Same, for doubles (slots are independent of the float slots).
  std::span<double> doubles(int slot, std::size_t n);
  /// Same, for the integer widths the bit-slice path stages data in.
  std::span<std::int8_t> i8s(int slot, std::size_t n);
  std::span<std::int16_t> i16s(int slot, std::size_t n);
  std::span<std::int32_t> i32s(int slot, std::size_t n);

 private:
  std::vector<float> f_[kSlots];
  std::vector<double> d_[kSlots];
  std::vector<std::int8_t> i8_[kSlots];
  std::vector<std::int16_t> i16_[kSlots];
  std::vector<std::int32_t> i32_[kSlots];
};

/// Thread-safe pool of Workspaces. Where the
/// thread_local idiom pins one workspace per (thread, call site) forever,
/// a pool bounds scratch to the number of CONCURRENT users and lets
/// warmed buffers migrate between call sites (a tiled-matmul slot task
/// and the GENIEx MLP forward reuse the same allocations). acquire() hands
/// out a warm workspace when one is free and grows the pool otherwise;
/// the lease returns it on destruction.
class WorkspacePool {
 public:
  class Lease {
   public:
    Lease(WorkspacePool* pool, std::unique_ptr<Workspace> ws)
        : pool_(pool), ws_(std::move(ws)) {}
    ~Lease();
    Lease(Lease&&) = default;
    Lease& operator=(Lease&&) = delete;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;

    Workspace& get() { return *ws_; }

   private:
    WorkspacePool* pool_;
    std::unique_ptr<Workspace> ws_;
  };

  Lease acquire();

 private:
  friend class Lease;
  void release(std::unique_ptr<Workspace> ws);

  std::mutex mu_;
  std::vector<std::unique_ptr<Workspace>> free_;
};

/// Process-wide pool shared by the puma tiled matmul and the blocked
/// model forwards (MlpRegressor::predict_block).
WorkspacePool& shared_workspace_pool();

}  // namespace nvm::simd
