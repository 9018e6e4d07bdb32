#include "common/simd.h"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "common/check.h"
#include "common/env.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/simd_kernels.h"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace nvm::simd {

// ISA resolution ----------------------------------------------------------
//
// A tier is usable only when (a) its TU was compiled with real kernels,
// (b) cpuid reports the instructions, and (c) the OS has enabled the
// register state via XSAVE — read from XCR0 with xgetbv. (b) without (c)
// happens under hypervisors/kernels that mask extended state: executing a
// VEX/EVEX instruction there faults with SIGILL, so cpuid bits alone are
// not a safe gate.

namespace {

#if defined(__x86_64__) || defined(__i386__)
std::uint64_t read_xcr0() {
  unsigned int eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return 0;
  if ((ecx & (1u << 27)) == 0) return 0;  // no OSXSAVE: xgetbv would fault
  unsigned int lo = 0, hi = 0;
  __asm__ volatile("xgetbv" : "=a"(lo), "=d"(hi) : "c"(0));
  return (static_cast<std::uint64_t>(hi) << 32) | lo;
}

bool avx2_cpu_flags() {
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
}

bool avx512_cpu_flags() {
  return __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512bw") &&
         __builtin_cpu_supports("avx512dq") &&
         __builtin_cpu_supports("avx512vl");
}

// XCR0: SSE|AVX (bits 1,2) for YMM; plus opmask|ZMM_Hi256|Hi16_ZMM
// (bits 5,6,7) for AVX-512.
bool avx_os_state() { return (read_xcr0() & 0x6) == 0x6; }
bool avx512_os_state() { return (read_xcr0() & 0xe6) == 0xe6; }
#endif

}  // namespace

bool avx2_compiled() { return detail::avx2_tu_compiled(); }
bool avx512_compiled() { return detail::avx512_tu_compiled(); }
bool neon_compiled() { return detail::neon_tu_compiled(); }

bool avx2_supported() {
#if defined(__x86_64__) || defined(__i386__)
  return avx2_cpu_flags() && avx_os_state();
#else
  return false;
#endif
}

bool avx512_supported() {
#if defined(__x86_64__) || defined(__i386__)
  return avx512_cpu_flags() && avx512_os_state();
#else
  return false;
#endif
}

bool neon_supported() {
#if defined(__aarch64__)
  return true;  // Advanced SIMD is architecturally baseline on AArch64
#else
  return false;
#endif
}

bool isa_usable(Isa isa) {
  switch (isa) {
    case Isa::Scalar:
      return true;
    case Isa::Avx2:
      return avx2_compiled() && avx2_supported();
    case Isa::Avx512:
      return avx512_compiled() && avx512_supported();
    case Isa::Neon:
      return neon_compiled() && neon_supported();
  }
  return false;
}

const char* isa_name(Isa isa) {
  switch (isa) {
    case Isa::Avx2:
      return "avx2";
    case Isa::Avx512:
      return "avx512";
    case Isa::Neon:
      return "neon";
    case Isa::Scalar:
      break;
  }
  return "scalar";
}

namespace {

std::atomic<int> g_isa{-1};  // -1 = unresolved

/// Widest tier that is compiled in AND safe to execute here.
Isa best_usable_isa() {
  if (isa_usable(Isa::Neon)) return Isa::Neon;
  if (isa_usable(Isa::Avx512)) return Isa::Avx512;
  if (isa_usable(Isa::Avx2)) return Isa::Avx2;
  return Isa::Scalar;
}

/// One-line reason a tier cannot be selected, for the fallback warning.
const char* unusable_reason(Isa isa) {
  switch (isa) {
    case Isa::Avx2:
      if (!avx2_compiled()) return "AVX2 kernels are not compiled in";
#if defined(__x86_64__) || defined(__i386__)
      if (avx2_cpu_flags() && !avx_os_state())
        return "CPU reports AVX2 but the OS has not enabled YMM state "
               "(XCR0)";
#endif
      return "this CPU lacks AVX2/FMA";
    case Isa::Avx512:
      if (!avx512_compiled()) return "AVX-512 kernels are not compiled in";
#if defined(__x86_64__) || defined(__i386__)
      if (avx512_cpu_flags() && !avx512_os_state())
        return "CPU reports AVX-512 but the OS has not enabled ZMM/opmask "
               "state (XCR0)";
#endif
      return "this CPU lacks AVX-512 F/BW/DQ/VL";
    case Isa::Neon:
      if (!neon_compiled()) return "NEON kernels are not compiled in";
      return "not an AArch64 machine";
    case Isa::Scalar:
      break;
  }
  return "";
}

int resolve_isa() {
  const std::string req = env_str("NVM_SIMD", "");
  if (req == "scalar") return static_cast<int>(Isa::Scalar);
  const Isa best = best_usable_isa();
  if (!req.empty()) {
    Isa want = Isa::Scalar;
    bool known = true;
    if (req == "avx2") {
      want = Isa::Avx2;
    } else if (req == "avx512") {
      want = Isa::Avx512;
    } else if (req == "neon") {
      want = Isa::Neon;
    } else {
      known = false;
      NVM_LOG(Warn) << "unknown NVM_SIMD='" << req
                    << "' (want scalar|avx2|avx512|neon); auto-detecting";
    }
    if (known) {
      if (isa_usable(want)) return static_cast<int>(want);
      NVM_LOG(Warn) << "NVM_SIMD=" << req << " requested but "
                    << unusable_reason(want) << "; falling back to "
                    << isa_name(best);
    }
  }
#if defined(__x86_64__) || defined(__i386__)
  // cpuid advertises instructions the OS never enabled: warn once so a
  // silently-degraded tier is visible in logs.
  if (best != Isa::Avx512 && avx512_compiled() && avx512_cpu_flags() &&
      !avx512_os_state())
    NVM_LOG(Warn) << unusable_reason(Isa::Avx512) << "; using "
                  << isa_name(best);
  if (best == Isa::Scalar && avx2_compiled() && avx2_cpu_flags() &&
      !avx_os_state())
    NVM_LOG(Warn) << unusable_reason(Isa::Avx2) << "; using scalar";
#endif
  return static_cast<int>(best);
}

void publish_isa(int isa) {
  metrics::gauge("simd/isa").set(static_cast<double>(isa));
}

}  // namespace

Isa active_isa() {
  int v = g_isa.load(std::memory_order_relaxed);
  if (v < 0) {
    // resolve_isa() is pure, so a lost race just recomputes the same value.
    const int resolved = resolve_isa();
    int expected = -1;
    g_isa.compare_exchange_strong(expected, resolved,
                                  std::memory_order_relaxed);
    v = g_isa.load(std::memory_order_relaxed);
    publish_isa(v);
  }
  return static_cast<Isa>(v);
}

ScopedIsaForTests::ScopedIsaForTests(Isa isa) {
  NVM_CHECK(isa_usable(isa), "cannot force " << isa_name(isa) << ": "
                                             << unusable_reason(isa));
  prev_ = g_isa.exchange(static_cast<int>(isa), std::memory_order_relaxed);
  publish_isa(static_cast<int>(isa));
}

ScopedIsaForTests::~ScopedIsaForTests() {
  g_isa.store(prev_, std::memory_order_relaxed);
  if (prev_ >= 0) publish_isa(prev_);
}

// Scalar kernels ----------------------------------------------------------
// These define the reference semantics; the vector TUs mirror them. Plain
// mul+add throughout (the build uses -ffp-contract=off, so the compiler
// cannot fuse these into FMAs behind our back).

namespace detail {

float dot_scalar(const float* a, const float* b, std::int64_t n) {
  float lanes[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  for (std::int64_t i = 0; i < n; ++i) lanes[i & 7] += a[i] * b[i];
  return ((lanes[0] + lanes[4]) + (lanes[2] + lanes[6])) +
         ((lanes[1] + lanes[5]) + (lanes[3] + lanes[7]));
}

void axpy_scalar(float* y, const float* x, float alpha, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void madd_scalar(float* y, const float* x, float alpha, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    const float t = alpha * x[i];
    y[i] = y[i] + t;
  }
}

void scale_scalar(float* y, const float* x, float alpha, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) y[i] = alpha * x[i];
}

void tanh_block_scalar(float* x, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) x[i] = tanh_fast(x[i]);
}

void gemm_scalar(float* c, const float* a, const float* b, std::int64_t m,
                 std::int64_t n, std::int64_t k, std::int64_t lda,
                 std::int64_t ldb, std::int64_t ldc) {
  for (std::int64_t i = 0; i < m; ++i) {
    float* crow = c + i * ldc;
    const float* arow = a + i * lda;
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const float aik = arow[kk];
      if (aik == 0.0f) continue;  // bit-sliced operands are mostly zero
      const float* brow = b + kk * ldb;
      for (std::int64_t j = 0; j < n; ++j) crow[j] += aik * brow[j];
    }
  }
}

void gemm_at_scalar(float* c, const float* a, const float* b, std::int64_t m,
                    std::int64_t n, std::int64_t k, std::int64_t lda,
                    std::int64_t ldb, std::int64_t ldc) {
  for (std::int64_t kk = 0; kk < k; ++kk) {
    const float* arow = a + kk * lda;
    const float* brow = b + kk * ldb;
    for (std::int64_t i = 0; i < m; ++i) {
      const float aki = arow[i];
      if (aki == 0.0f) continue;
      float* crow = c + i * ldc;
      for (std::int64_t j = 0; j < n; ++j) crow[j] += aki * brow[j];
    }
  }
}

void gemm_bt_scalar(float* c, const float* a, const float* b, std::int64_t m,
                    std::int64_t n, std::int64_t k, std::int64_t lda,
                    std::int64_t ldb, std::int64_t ldc) {
  for (std::int64_t i = 0; i < m; ++i) {
    const float* arow = a + i * lda;
    float* crow = c + i * ldc;
    for (std::int64_t j = 0; j < n; ++j)
      crow[j] += dot_scalar(arow, b + j * ldb, k);
  }
}

void mlp_tanh_accum_scalar(float* y, const float* h0, const float* a,
                           const float* x, const float* w2,
                           std::int64_t hidden, std::int64_t n,
                           std::int64_t k, std::int64_t ldh, std::int64_t lda,
                           std::int64_t ldx) {
  // gemm_scalar's per-element sequence in both layers: unfused, zero
  // coefficients skipped.
  for (std::int64_t j = 0; j < n; ++j) {
    float yj = y[j];
    for (std::int64_t h = 0; h < hidden; ++h) {
      const float* ah = a + h * lda;
      float t = h0[h * ldh + j];
      for (std::int64_t f = 0; f < k; ++f) {
        if (ah[f] == 0.0f) continue;
        t += ah[f] * x[f * ldx + j];
      }
      t = tanh_fast(t);
      if (w2[h] != 0.0f) yj += w2[h] * t;
    }
    y[j] = yj;
  }
}

void gemm_f64acc_scalar(float* out, const float* a, const float* v,
                        std::int64_t m, std::int64_t n, std::int64_t k,
                        std::int64_t lda, std::int64_t ldv, std::int64_t ldo) {
  // Column blocks of 8 keep the V accesses contiguous per k-step; each
  // output element still accumulates sequentially over k in double, so the
  // result is independent of the blocking.
  for (std::int64_t i = 0; i < m; ++i) {
    const float* arow = a + i * lda;
    for (std::int64_t j0 = 0; j0 < n; j0 += 8) {
      const std::int64_t jn = std::min<std::int64_t>(8, n - j0);
      double acc[8] = {0, 0, 0, 0, 0, 0, 0, 0};
      for (std::int64_t kk = 0; kk < k; ++kk) {
        const double av = static_cast<double>(arow[kk]);
        const float* vrow = v + kk * ldv + j0;
        for (std::int64_t j = 0; j < jn; ++j)
          acc[j] += av * static_cast<double>(vrow[j]);
      }
      float* orow = out + i * ldo + j0;
      for (std::int64_t j = 0; j < jn; ++j)
        orow[j] = static_cast<float>(acc[j]);
    }
  }
}

void quantize_affine_scalar(float* out, const float* x, std::int64_t n,
                            float scale, float qmax) {
  for (std::int64_t i = 0; i < n; ++i) {
    const float clipped = std::clamp(x[i], 0.0f, scale);
    out[i] = std::round(clipped / scale * qmax);
  }
}

void adc_shift_add_scalar(float* acc, const float* cur, const float* baseline,
                          std::int64_t n, float full_scale, float steps,
                          float shift) {
  for (std::int64_t i = 0; i < n; ++i) {
    const float clamped = std::clamp(cur[i], 0.0f, full_scale);
    const float q = std::round(clamped / full_scale * steps) * full_scale /
                    steps;
    acc[i] += shift * (q - baseline[i]);
  }
}

void quantize_to_i8_scalar(std::int8_t* out, const float* x, std::int64_t n,
                           float scale, float qmax) {
  for (std::int64_t i = 0; i < n; ++i) {
    const float clipped = std::clamp(x[i], 0.0f, scale);
    out[i] = static_cast<std::int8_t>(std::round(clipped / scale * qmax));
  }
}

void quantize_to_i16_scalar(std::int16_t* out, const float* x, std::int64_t n,
                            float scale, float qmax) {
  for (std::int64_t i = 0; i < n; ++i) {
    const float clipped = std::clamp(x[i], 0.0f, scale);
    out[i] = static_cast<std::int16_t>(std::round(clipped / scale * qmax));
  }
}

void gemm_at_i8_i32acc_scalar(std::int32_t* c, const std::int8_t* a,
                              const std::int8_t* b, std::int64_t m,
                              std::int64_t n, std::int64_t k, std::int64_t lda,
                              std::int64_t ldb, std::int64_t ldc) {
  for (std::int64_t kk = 0; kk < k; ++kk) {
    const std::int8_t* arow = a + kk * lda;
    const std::int8_t* brow = b + kk * ldb;
    for (std::int64_t i = 0; i < m; ++i) {
      const std::int32_t aki = arow[i];
      if (aki == 0) continue;  // bit-sliced operands are mostly zero
      std::int32_t* crow = c + i * ldc;
      for (std::int64_t j = 0; j < n; ++j) crow[j] += aki * brow[j];
    }
  }
}

void adc_shift_add_i32_scalar(float* acc, const std::int32_t* dot,
                              const float* baseline, std::int64_t n,
                              float dot_unit, float full_scale, float steps,
                              float shift) {
  for (std::int64_t i = 0; i < n; ++i) {
    const float cur = baseline[i] + dot_unit * static_cast<float>(dot[i]);
    const float clamped = std::clamp(cur, 0.0f, full_scale);
    const float q = std::round(clamped / full_scale * steps) * full_scale /
                    steps;
    acc[i] += shift * (q - baseline[i]);
  }
}

}  // namespace detail

float tanh_fast(float x) {
  if (x > 4.97f) return 1.0f;
  if (x < -4.97f) return -1.0f;
  const float x2 = x * x;
  const float p = x * (135135.0f + x2 * (17325.0f + x2 * (378.0f + x2)));
  const float q = 135135.0f + x2 * (62370.0f + x2 * (3150.0f + x2 * 28.0f));
  return p / q;
}

// Public dispatch ---------------------------------------------------------

namespace {

/// One call + flop tally; call-site counters are cached by the wrappers.
inline void tally(metrics::Counter& calls, std::uint64_t flops) {
  static metrics::Counter& f = metrics::counter("simd/flops");
  calls.add();
  f.add(flops);
}

inline std::uint64_t u64(std::int64_t v) {
  return static_cast<std::uint64_t>(v);
}

}  // namespace

// Four-way tier switch; works for void and value-returning kernels alike.
#define NVM_SIMD_DISPATCH(fn, ...)                      \
  switch (active_isa()) {                               \
    case Isa::Avx512:                                   \
      return detail::fn##_avx512(__VA_ARGS__);          \
    case Isa::Avx2:                                     \
      return detail::fn##_avx2(__VA_ARGS__);            \
    case Isa::Neon:                                     \
      return detail::fn##_neon(__VA_ARGS__);            \
    case Isa::Scalar:                                   \
      break;                                            \
  }                                                     \
  return detail::fn##_scalar(__VA_ARGS__)

float dot(const float* a, const float* b, std::int64_t n) {
  static metrics::Counter& c = metrics::counter("simd/kernel/dot");
  tally(c, 2 * u64(n));
  NVM_SIMD_DISPATCH(dot, a, b, n);
}

void axpy(float* y, const float* x, float alpha, std::int64_t n) {
  static metrics::Counter& c = metrics::counter("simd/kernel/axpy");
  tally(c, 2 * u64(n));
  NVM_SIMD_DISPATCH(axpy, y, x, alpha, n);
}

void madd(float* y, const float* x, float alpha, std::int64_t n) {
  static metrics::Counter& c = metrics::counter("simd/kernel/madd");
  tally(c, 2 * u64(n));
  NVM_SIMD_DISPATCH(madd, y, x, alpha, n);
}

void scale(float* y, const float* x, float alpha, std::int64_t n) {
  static metrics::Counter& c = metrics::counter("simd/kernel/scale");
  tally(c, u64(n));
  NVM_SIMD_DISPATCH(scale, y, x, alpha, n);
}

void tanh_block(float* x, std::int64_t n) {
  static metrics::Counter& c = metrics::counter("simd/kernel/tanh_block");
  tally(c, 12 * u64(n));  // ~12 arithmetic ops per rational tanh
  NVM_SIMD_DISPATCH(tanh_block, x, n);
}

void gemm_accum(float* c, const float* a, const float* b, std::int64_t m,
                std::int64_t n, std::int64_t k, std::int64_t lda,
                std::int64_t ldb, std::int64_t ldc) {
  static metrics::Counter& calls = metrics::counter("simd/kernel/gemm");
  tally(calls, 2 * u64(m) * u64(n) * u64(k));
  NVM_SIMD_DISPATCH(gemm, c, a, b, m, n, k, lda, ldb, ldc);
}

void mlp_tanh_accum(float* y, const float* h0, const float* a, const float* x,
                    const float* w2, std::int64_t hidden, std::int64_t n,
                    std::int64_t k, std::int64_t ldh, std::int64_t lda,
                    std::int64_t ldx) {
  static metrics::Counter& calls = metrics::counter("simd/kernel/mlp_tanh");
  // Both layers' multiply-adds plus ~12 ops per tanh, per (unit, sample).
  tally(calls, u64(hidden) * u64(n) * (2 * u64(k) + 14));
  NVM_SIMD_DISPATCH(mlp_tanh_accum, y, h0, a, x, w2, hidden, n, k, ldh, lda,
                    ldx);
}

void gemm_at_accum(float* c, const float* a, const float* b, std::int64_t m,
                   std::int64_t n, std::int64_t k, std::int64_t lda,
                   std::int64_t ldb, std::int64_t ldc) {
  static metrics::Counter& calls = metrics::counter("simd/kernel/gemm_at");
  tally(calls, 2 * u64(m) * u64(n) * u64(k));
  NVM_SIMD_DISPATCH(gemm_at, c, a, b, m, n, k, lda, ldb, ldc);
}

void gemm_bt_accum(float* c, const float* a, const float* b, std::int64_t m,
                   std::int64_t n, std::int64_t k, std::int64_t lda,
                   std::int64_t ldb, std::int64_t ldc) {
  static metrics::Counter& calls = metrics::counter("simd/kernel/gemm_bt");
  tally(calls, 2 * u64(m) * u64(n) * u64(k));
  NVM_SIMD_DISPATCH(gemm_bt, c, a, b, m, n, k, lda, ldb, ldc);
}

void gemm_f64acc(float* out, const float* a, const float* v, std::int64_t m,
                 std::int64_t n, std::int64_t k, std::int64_t lda,
                 std::int64_t ldv, std::int64_t ldo) {
  static metrics::Counter& calls = metrics::counter("simd/kernel/gemm_f64acc");
  tally(calls, 2 * u64(m) * u64(n) * u64(k));
  NVM_SIMD_DISPATCH(gemm_f64acc, out, a, v, m, n, k, lda, ldv, ldo);
}

void quantize_affine(float* out, const float* x, std::int64_t n, float scale,
                     float qmax) {
  static metrics::Counter& c = metrics::counter("simd/kernel/quantize");
  tally(c, 4 * u64(n));
  NVM_SIMD_DISPATCH(quantize_affine, out, x, n, scale, qmax);
}

void adc_shift_add(float* acc, const float* cur, const float* baseline,
                   std::int64_t n, float full_scale, float steps,
                   float shift) {
  static metrics::Counter& c = metrics::counter("simd/kernel/adc_shift_add");
  tally(c, 8 * u64(n));
  NVM_SIMD_DISPATCH(adc_shift_add, acc, cur, baseline, n, full_scale, steps,
                    shift);
}

void quantize_to_i8(std::int8_t* out, const float* x, std::int64_t n,
                    float scale, float qmax) {
  NVM_CHECK(qmax > 0.0f && qmax <= 127.0f, "i8 qmax=" << qmax);
  static metrics::Counter& c = metrics::counter("simd/kernel/quantize_i8");
  tally(c, 4 * u64(n));
  NVM_SIMD_DISPATCH(quantize_to_i8, out, x, n, scale, qmax);
}

void quantize_to_i16(std::int16_t* out, const float* x, std::int64_t n,
                     float scale, float qmax) {
  NVM_CHECK(qmax > 0.0f && qmax <= 32767.0f, "i16 qmax=" << qmax);
  static metrics::Counter& c = metrics::counter("simd/kernel/quantize_i16");
  tally(c, 4 * u64(n));
  NVM_SIMD_DISPATCH(quantize_to_i16, out, x, n, scale, qmax);
}

void gemm_at_i8_i32acc(std::int32_t* c, const std::int8_t* a,
                       const std::int8_t* b, std::int64_t m, std::int64_t n,
                       std::int64_t k, std::int64_t lda, std::int64_t ldb,
                       std::int64_t ldc) {
  static metrics::Counter& calls =
      metrics::counter("simd/kernel/gemm_i32acc");
  tally(calls, 2 * u64(m) * u64(n) * u64(k));
  NVM_SIMD_DISPATCH(gemm_at_i8_i32acc, c, a, b, m, n, k, lda, ldb, ldc);
}

void adc_shift_add_i32(float* acc, const std::int32_t* dot,
                       const float* baseline, std::int64_t n, float dot_unit,
                       float full_scale, float steps, float shift) {
  static metrics::Counter& c =
      metrics::counter("simd/kernel/adc_shift_add_i32");
  tally(c, 10 * u64(n));
  NVM_SIMD_DISPATCH(adc_shift_add_i32, acc, dot, baseline, n, dot_unit,
                    full_scale, steps, shift);
}

#undef NVM_SIMD_DISPATCH

// Workspace ---------------------------------------------------------------

namespace {

template <typename T>
std::span<T> acquire(std::vector<T>& buf, std::size_t n) {
  static metrics::Counter& reuses = metrics::counter("simd/workspace/reuses");
  if (buf.size() >= n)
    reuses.add();
  else
    buf.resize(n);
  return {buf.data(), n};
}

}  // namespace

std::span<float> Workspace::floats(int slot, std::size_t n) {
  NVM_CHECK(slot >= 0 && slot < kSlots, "workspace slot=" << slot);
  return acquire(f_[slot], n);
}

std::span<double> Workspace::doubles(int slot, std::size_t n) {
  NVM_CHECK(slot >= 0 && slot < kSlots, "workspace slot=" << slot);
  return acquire(d_[slot], n);
}

std::span<std::int8_t> Workspace::i8s(int slot, std::size_t n) {
  NVM_CHECK(slot >= 0 && slot < kSlots, "workspace slot=" << slot);
  return acquire(i8_[slot], n);
}

std::span<std::int16_t> Workspace::i16s(int slot, std::size_t n) {
  NVM_CHECK(slot >= 0 && slot < kSlots, "workspace slot=" << slot);
  return acquire(i16_[slot], n);
}

std::span<std::int32_t> Workspace::i32s(int slot, std::size_t n) {
  NVM_CHECK(slot >= 0 && slot < kSlots, "workspace slot=" << slot);
  return acquire(i32_[slot], n);
}

WorkspacePool::Lease::~Lease() {
  if (pool_ != nullptr && ws_ != nullptr) pool_->release(std::move(ws_));
}

WorkspacePool::Lease WorkspacePool::acquire() {
  static metrics::Counter& leases =
      metrics::counter("simd/workspace/pool_leases");
  static metrics::Counter& grows =
      metrics::counter("simd/workspace/pool_grows");
  leases.add();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!free_.empty()) {
      std::unique_ptr<Workspace> ws = std::move(free_.back());
      free_.pop_back();
      return {this, std::move(ws)};
    }
  }
  grows.add();
  return {this, std::make_unique<Workspace>()};
}

void WorkspacePool::release(std::unique_ptr<Workspace> ws) {
  std::lock_guard<std::mutex> lock(mu_);
  free_.push_back(std::move(ws));
}

WorkspacePool& shared_workspace_pool() {
  static WorkspacePool* pool = new WorkspacePool();  // never destructed
  return *pool;
}

}  // namespace nvm::simd
