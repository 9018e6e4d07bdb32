// AVX-512 kernel variants. This is the only translation unit built with
// -mavx512f -mavx512bw -mavx512dq -mavx512vl (per-file flags from
// src/common/CMakeLists.txt, applied only when NVM_ENABLE_AVX512 is on —
// otherwise the stubs at the bottom are compiled and the runtime
// dispatcher never routes here).
//
// Parity rules mirrored from simd.h: [exact] kernels use the same
// unfused mul/add sequence per element as the scalar reference in
// simd.cpp (elementwise IEEE ops are width-independent, so running them
// 16 wide changes nothing); [~ulp] kernels (dot, axpy, gemm, gemm_at,
// gemm_bt) use FMA in the vector body, and dot folds its 16 lanes
// pairwise onto the documented 8-lane tree. gemm_f64acc stays [exact]:
// float*float products are exact in double, so fmadd_pd rounds like the
// reference's mul-then-add. Tail lanes (past the last full vector) are
// unfused like the reference: scalar loops, or in the gemm microtiles one
// masked vector of mul then add (the whole build carries
// -ffp-contract=off; FMA only appears via intrinsics).
#include "common/simd_kernels.h"

#ifdef NVM_SIMD_AVX512_TU

#include <immintrin.h>

#include <algorithm>
#include <cmath>

#include "common/simd.h"

namespace nvm::simd::detail {

bool avx512_tu_compiled() { return true; }

namespace {

/// Reduction of the 8 strided lanes in the documented fixed tree.
inline float reduce_lanes(const float lanes[8]) {
  return ((lanes[0] + lanes[4]) + (lanes[2] + lanes[6])) +
         ((lanes[1] + lanes[5]) + (lanes[3] + lanes[7]));
}

/// round-half-away-from-zero for non-negative t: floor(t) + (frac >= 0.5).
/// frac = t - floor(t) is exact (Sterbenz), so this matches std::round on
/// the whole non-negative domain including ties.
inline __m512 round_nonneg(__m512 t) {
  const __m512 fl =
      _mm512_roundscale_ps(t, _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC);
  const __m512 frac = _mm512_sub_ps(t, fl);
  const __mmask16 ge =
      _mm512_cmp_ps_mask(frac, _mm512_set1_ps(0.5f), _CMP_GE_OQ);
  return _mm512_mask_add_ps(fl, ge, fl, _mm512_set1_ps(1.0f));
}

}  // namespace

float dot_avx512(const float* a, const float* b, std::int64_t n) {
  const std::int64_t n16 = n & ~std::int64_t{15};
  __m512 acc = _mm512_setzero_ps();
  for (std::int64_t i = 0; i < n16; i += 16)
    acc = _mm512_fmadd_ps(_mm512_loadu_ps(a + i), _mm512_loadu_ps(b + i),
                          acc);
  alignas(64) float l16[16];
  _mm512_store_ps(l16, acc);
  float lanes[8];
  for (int l = 0; l < 8; ++l) lanes[l] = l16[l] + l16[l + 8];
  for (std::int64_t i = n16; i < n; ++i) lanes[i & 7] += a[i] * b[i];
  return reduce_lanes(lanes);
}

void axpy_avx512(float* y, const float* x, float alpha, std::int64_t n) {
  const __m512 va = _mm512_set1_ps(alpha);
  const std::int64_t n16 = n & ~std::int64_t{15};
  for (std::int64_t i = 0; i < n16; i += 16)
    _mm512_storeu_ps(
        y + i, _mm512_fmadd_ps(va, _mm512_loadu_ps(x + i),
                               _mm512_loadu_ps(y + i)));
  for (std::int64_t i = n16; i < n; ++i) y[i] += alpha * x[i];
}

void madd_avx512(float* y, const float* x, float alpha, std::int64_t n) {
  const __m512 va = _mm512_set1_ps(alpha);
  const std::int64_t n16 = n & ~std::int64_t{15};
  for (std::int64_t i = 0; i < n16; i += 16) {
    const __m512 t = _mm512_mul_ps(va, _mm512_loadu_ps(x + i));
    _mm512_storeu_ps(y + i, _mm512_add_ps(_mm512_loadu_ps(y + i), t));
  }
  for (std::int64_t i = n16; i < n; ++i) {
    const float t = alpha * x[i];
    y[i] = y[i] + t;
  }
}

void scale_avx512(float* y, const float* x, float alpha, std::int64_t n) {
  const __m512 va = _mm512_set1_ps(alpha);
  const std::int64_t n16 = n & ~std::int64_t{15};
  for (std::int64_t i = 0; i < n16; i += 16)
    _mm512_storeu_ps(y + i, _mm512_mul_ps(va, _mm512_loadu_ps(x + i)));
  for (std::int64_t i = n16; i < n; ++i) y[i] = alpha * x[i];
}

namespace {

/// tanh_fast's op sequence on 16 lanes; saturation applied by mask.
inline __m512 tanh16(__m512 v) {
  const __m512 c0 = _mm512_set1_ps(135135.0f);
  const __m512 x2 = _mm512_mul_ps(v, v);
  __m512 p = _mm512_add_ps(_mm512_set1_ps(378.0f), x2);
  p = _mm512_add_ps(_mm512_set1_ps(17325.0f), _mm512_mul_ps(x2, p));
  p = _mm512_add_ps(c0, _mm512_mul_ps(x2, p));
  p = _mm512_mul_ps(v, p);
  __m512 q = _mm512_add_ps(_mm512_set1_ps(3150.0f),
                           _mm512_mul_ps(x2, _mm512_set1_ps(28.0f)));
  q = _mm512_add_ps(_mm512_set1_ps(62370.0f), _mm512_mul_ps(x2, q));
  q = _mm512_add_ps(c0, _mm512_mul_ps(x2, q));
  __m512 r = _mm512_div_ps(p, q);
  r = _mm512_mask_mov_ps(
      r, _mm512_cmp_ps_mask(v, _mm512_set1_ps(4.97f), _CMP_GT_OQ),
      _mm512_set1_ps(1.0f));
  r = _mm512_mask_mov_ps(
      r, _mm512_cmp_ps_mask(v, _mm512_set1_ps(-4.97f), _CMP_LT_OQ),
      _mm512_set1_ps(-1.0f));
  return r;
}

}  // namespace

void tanh_block_avx512(float* x, std::int64_t n) {
  const std::int64_t n16 = n & ~std::int64_t{15};
  for (std::int64_t i = 0; i < n16; i += 16)
    _mm512_storeu_ps(x + i, tanh16(_mm512_loadu_ps(x + i)));
  for (std::int64_t i = n16; i < n; ++i) x[i] = tanh_fast(x[i]);
}

namespace {

/// Mask of the first `lanes` (1..15) of a 16-float vector.
inline __mmask16 tail_mask(std::int64_t lanes) {
  return static_cast<__mmask16>((1u << lanes) - 1u);
}

/// One output row of C += A*B style accumulation: crow[j] accumulates
/// coef(kk) * b[kk*ldb + j] sequentially over kk, FMA in the vector body.
/// The lanes past the last full vector run as one masked vector with an
/// unfused mul then add, the scalar reference's op per lane.
template <typename Coef>
inline void gemm_row_fma(float* crow, const float* b, std::int64_t n,
                         std::int64_t k, std::int64_t ldb, Coef coef) {
  const std::int64_t n16 = n & ~std::int64_t{15};
  for (std::int64_t j0 = 0; j0 < n16; j0 += 16) {
    __m512 acc = _mm512_loadu_ps(crow + j0);
    for (std::int64_t kk = 0; kk < k; ++kk)
      acc = _mm512_fmadd_ps(_mm512_set1_ps(coef(kk)),
                            _mm512_loadu_ps(b + kk * ldb + j0), acc);
    _mm512_storeu_ps(crow + j0, acc);
  }
  if (n16 == n) return;
  const __mmask16 tail = tail_mask(n - n16);
  __m512 acc = _mm512_maskz_loadu_ps(tail, crow + n16);
  for (std::int64_t kk = 0; kk < k; ++kk)
    acc = _mm512_add_ps(
        acc, _mm512_mul_ps(_mm512_set1_ps(coef(kk)),
                           _mm512_maskz_loadu_ps(tail, b + kk * ldb + n16)));
  _mm512_mask_storeu_ps(crow + n16, tail, acc);
}

/// 4x16 microtile: four independent FMA chains over k for ILP. `coef(r,kk)`
/// yields the A element for microtile row r at reduction index kk. Tail
/// lanes as in gemm_row_fma, four masked chains sharing each B load.
template <typename Coef>
inline void gemm_tile4_fma(float* c, const float* b, std::int64_t n,
                           std::int64_t k, std::int64_t ldb, std::int64_t ldc,
                           Coef coef) {
  const std::int64_t n16 = n & ~std::int64_t{15};
  for (std::int64_t j0 = 0; j0 < n16; j0 += 16) {
    __m512 acc0 = _mm512_loadu_ps(c + 0 * ldc + j0);
    __m512 acc1 = _mm512_loadu_ps(c + 1 * ldc + j0);
    __m512 acc2 = _mm512_loadu_ps(c + 2 * ldc + j0);
    __m512 acc3 = _mm512_loadu_ps(c + 3 * ldc + j0);
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const __m512 bv = _mm512_loadu_ps(b + kk * ldb + j0);
      acc0 = _mm512_fmadd_ps(_mm512_set1_ps(coef(0, kk)), bv, acc0);
      acc1 = _mm512_fmadd_ps(_mm512_set1_ps(coef(1, kk)), bv, acc1);
      acc2 = _mm512_fmadd_ps(_mm512_set1_ps(coef(2, kk)), bv, acc2);
      acc3 = _mm512_fmadd_ps(_mm512_set1_ps(coef(3, kk)), bv, acc3);
    }
    _mm512_storeu_ps(c + 0 * ldc + j0, acc0);
    _mm512_storeu_ps(c + 1 * ldc + j0, acc1);
    _mm512_storeu_ps(c + 2 * ldc + j0, acc2);
    _mm512_storeu_ps(c + 3 * ldc + j0, acc3);
  }
  if (n16 == n) return;
  const __mmask16 tail = tail_mask(n - n16);
  __m512 acc0 = _mm512_maskz_loadu_ps(tail, c + 0 * ldc + n16);
  __m512 acc1 = _mm512_maskz_loadu_ps(tail, c + 1 * ldc + n16);
  __m512 acc2 = _mm512_maskz_loadu_ps(tail, c + 2 * ldc + n16);
  __m512 acc3 = _mm512_maskz_loadu_ps(tail, c + 3 * ldc + n16);
  for (std::int64_t kk = 0; kk < k; ++kk) {
    const __m512 bv = _mm512_maskz_loadu_ps(tail, b + kk * ldb + n16);
    acc0 = _mm512_add_ps(acc0, _mm512_mul_ps(_mm512_set1_ps(coef(0, kk)), bv));
    acc1 = _mm512_add_ps(acc1, _mm512_mul_ps(_mm512_set1_ps(coef(1, kk)), bv));
    acc2 = _mm512_add_ps(acc2, _mm512_mul_ps(_mm512_set1_ps(coef(2, kk)), bv));
    acc3 = _mm512_add_ps(acc3, _mm512_mul_ps(_mm512_set1_ps(coef(3, kk)), bv));
  }
  _mm512_mask_storeu_ps(c + 0 * ldc + n16, tail, acc0);
  _mm512_mask_storeu_ps(c + 1 * ldc + n16, tail, acc1);
  _mm512_mask_storeu_ps(c + 2 * ldc + n16, tail, acc2);
  _mm512_mask_storeu_ps(c + 3 * ldc + n16, tail, acc3);
}

}  // namespace

void gemm_avx512(float* c, const float* a, const float* b, std::int64_t m,
                 std::int64_t n, std::int64_t k, std::int64_t lda,
                 std::int64_t ldb, std::int64_t ldc) {
  const std::int64_t m4 = m & ~std::int64_t{3};
  for (std::int64_t i0 = 0; i0 < m4; i0 += 4)
    gemm_tile4_fma(c + i0 * ldc, b, n, k, ldb, ldc,
                   [&](int r, std::int64_t kk) {
                     return a[(i0 + r) * lda + kk];
                   });
  for (std::int64_t i = m4; i < m; ++i)
    gemm_row_fma(c + i * ldc, b, n, k, ldb,
                 [&](std::int64_t kk) { return a[i * lda + kk]; });
}

void mlp_tanh_accum_avx512(float* y, const float* h0, const float* a,
                           const float* x, const float* w2,
                           std::int64_t hidden, std::int64_t n,
                           std::int64_t k, std::int64_t ldh, std::int64_t lda,
                           std::int64_t ldx) {
  // Lanes below n16 take gemm_avx512's FMA body in both layers, the rest
  // its unfused tail's ops (here one lane at a time); tanh is exact either
  // way.
  const std::int64_t n16 = n & ~std::int64_t{15};
  for (std::int64_t j0 = 0; j0 < n16; j0 += 16) {
    __m512 yv = _mm512_loadu_ps(y + j0);
    for (std::int64_t h = 0; h < hidden; ++h) {
      const float* ah = a + h * lda;
      __m512 t = _mm512_loadu_ps(h0 + h * ldh + j0);
      for (std::int64_t f = 0; f < k; ++f)
        t = _mm512_fmadd_ps(_mm512_set1_ps(ah[f]),
                            _mm512_loadu_ps(x + f * ldx + j0), t);
      yv = _mm512_fmadd_ps(_mm512_set1_ps(w2[h]), tanh16(t), yv);
    }
    _mm512_storeu_ps(y + j0, yv);
  }
  for (std::int64_t j = n16; j < n; ++j) {
    float yj = y[j];
    for (std::int64_t h = 0; h < hidden; ++h) {
      const float* ah = a + h * lda;
      float t = h0[h * ldh + j];
      for (std::int64_t f = 0; f < k; ++f) t += ah[f] * x[f * ldx + j];
      yj += w2[h] * tanh_fast(t);
    }
    y[j] = yj;
  }
}

void gemm_at_avx512(float* c, const float* a, const float* b, std::int64_t m,
                    std::int64_t n, std::int64_t k, std::int64_t lda,
                    std::int64_t ldb, std::int64_t ldc) {
  const std::int64_t m4 = m & ~std::int64_t{3};
  for (std::int64_t i0 = 0; i0 < m4; i0 += 4)
    gemm_tile4_fma(c + i0 * ldc, b, n, k, ldb, ldc,
                   [&](int r, std::int64_t kk) {
                     return a[kk * lda + i0 + r];
                   });
  for (std::int64_t i = m4; i < m; ++i)
    gemm_row_fma(c + i * ldc, b, n, k, ldb,
                 [&](std::int64_t kk) { return a[kk * lda + i]; });
}

void gemm_bt_avx512(float* c, const float* a, const float* b, std::int64_t m,
                    std::int64_t n, std::int64_t k, std::int64_t lda,
                    std::int64_t ldb, std::int64_t ldc) {
  for (std::int64_t i = 0; i < m; ++i) {
    const float* arow = a + i * lda;
    float* crow = c + i * ldc;
    for (std::int64_t j = 0; j < n; ++j)
      crow[j] += dot_avx512(arow, b + j * ldb, k);
  }
}

void gemm_f64acc_avx512(float* out, const float* a, const float* v,
                        std::int64_t m, std::int64_t n, std::int64_t k,
                        std::int64_t lda, std::int64_t ldv, std::int64_t ldo) {
  // double(a)*double(v) is exact (24+24 significand bits fit in 53), so
  // fmadd_pd rounds exactly like the scalar reference's mul-then-add —
  // this kernel is bit-identical to gemm_f64acc_scalar.
  const std::int64_t n8 = n & ~std::int64_t{7};
  for (std::int64_t i = 0; i < m; ++i) {
    const float* arow = a + i * lda;
    for (std::int64_t j0 = 0; j0 < n8; j0 += 8) {
      __m512d acc = _mm512_setzero_pd();
      for (std::int64_t kk = 0; kk < k; ++kk) {
        const __m512d av = _mm512_set1_pd(static_cast<double>(arow[kk]));
        const __m512d vv =
            _mm512_cvtps_pd(_mm256_loadu_ps(v + kk * ldv + j0));
        acc = _mm512_fmadd_pd(av, vv, acc);
      }
      _mm256_storeu_ps(out + i * ldo + j0, _mm512_cvtpd_ps(acc));
    }
    for (std::int64_t j = n8; j < n; ++j) {
      double acc = 0.0;
      for (std::int64_t kk = 0; kk < k; ++kk)
        acc += static_cast<double>(arow[kk]) *
               static_cast<double>(v[kk * ldv + j]);
      out[i * ldo + j] = static_cast<float>(acc);
    }
  }
}

void quantize_affine_avx512(float* out, const float* x, std::int64_t n,
                            float scale, float qmax) {
  const __m512 zero = _mm512_setzero_ps();
  const __m512 vs = _mm512_set1_ps(scale);
  const __m512 vq = _mm512_set1_ps(qmax);
  const std::int64_t n16 = n & ~std::int64_t{15};
  for (std::int64_t i = 0; i < n16; i += 16) {
    const __m512 clipped =
        _mm512_min_ps(_mm512_max_ps(_mm512_loadu_ps(x + i), zero), vs);
    const __m512 t = _mm512_mul_ps(_mm512_div_ps(clipped, vs), vq);
    _mm512_storeu_ps(out + i, round_nonneg(t));
  }
  for (std::int64_t i = n16; i < n; ++i) {
    const float clipped = std::clamp(x[i], 0.0f, scale);
    out[i] = std::round(clipped / scale * qmax);
  }
}

void adc_shift_add_avx512(float* acc, const float* cur, const float* baseline,
                          std::int64_t n, float full_scale, float steps,
                          float shift) {
  const __m512 zero = _mm512_setzero_ps();
  const __m512 vfs = _mm512_set1_ps(full_scale);
  const __m512 vsteps = _mm512_set1_ps(steps);
  const __m512 vshift = _mm512_set1_ps(shift);
  const std::int64_t n16 = n & ~std::int64_t{15};
  for (std::int64_t i = 0; i < n16; i += 16) {
    const __m512 clamped =
        _mm512_min_ps(_mm512_max_ps(_mm512_loadu_ps(cur + i), zero), vfs);
    const __m512 r =
        round_nonneg(_mm512_mul_ps(_mm512_div_ps(clamped, vfs), vsteps));
    const __m512 q = _mm512_div_ps(_mm512_mul_ps(r, vfs), vsteps);
    const __m512 d = _mm512_sub_ps(q, _mm512_loadu_ps(baseline + i));
    // Unfused mul+add to match the scalar reference bit-for-bit.
    _mm512_storeu_ps(acc + i, _mm512_add_ps(_mm512_loadu_ps(acc + i),
                                            _mm512_mul_ps(vshift, d)));
  }
  for (std::int64_t i = n16; i < n; ++i) {
    const float clamped = std::clamp(cur[i], 0.0f, full_scale);
    const float q = std::round(clamped / full_scale * steps) * full_scale /
                    steps;
    acc[i] += shift * (q - baseline[i]);
  }
}

namespace {

/// Rounded quantization codes for 16 floats, as i32 (codes are integral,
/// so cvtps_epi32's round-to-nearest-even cannot move them).
inline __m512i quantize_codes16(const float* x, __m512 vs, __m512 vq) {
  const __m512 clipped = _mm512_min_ps(
      _mm512_max_ps(_mm512_loadu_ps(x), _mm512_setzero_ps()), vs);
  const __m512 t = _mm512_mul_ps(_mm512_div_ps(clipped, vs), vq);
  return _mm512_cvtps_epi32(round_nonneg(t));
}

}  // namespace

void quantize_to_i8_avx512(std::int8_t* out, const float* x, std::int64_t n,
                           float scale, float qmax) {
  const __m512 vs = _mm512_set1_ps(scale);
  const __m512 vq = _mm512_set1_ps(qmax);
  const std::int64_t n16 = n & ~std::int64_t{15};
  for (std::int64_t i = 0; i < n16; i += 16)
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i),
                     _mm512_cvtepi32_epi8(quantize_codes16(x + i, vs, vq)));
  for (std::int64_t i = n16; i < n; ++i) {
    const float clipped = std::clamp(x[i], 0.0f, scale);
    out[i] = static_cast<std::int8_t>(std::round(clipped / scale * qmax));
  }
}

void quantize_to_i16_avx512(std::int16_t* out, const float* x, std::int64_t n,
                            float scale, float qmax) {
  const __m512 vs = _mm512_set1_ps(scale);
  const __m512 vq = _mm512_set1_ps(qmax);
  const std::int64_t n16 = n & ~std::int64_t{15};
  for (std::int64_t i = 0; i < n16; i += 16)
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(out + i),
        _mm512_cvtepi32_epi16(quantize_codes16(x + i, vs, vq)));
  for (std::int64_t i = n16; i < n; ++i) {
    const float clipped = std::clamp(x[i], 0.0f, scale);
    out[i] = static_cast<std::int16_t>(std::round(clipped / scale * qmax));
  }
}

void gemm_at_i8_i32acc_avx512(std::int32_t* c, const std::int8_t* a,
                              const std::int8_t* b, std::int64_t m,
                              std::int64_t n, std::int64_t k,
                              std::int64_t lda, std::int64_t ldb,
                              std::int64_t ldc) {
  // 4x16 microtiles: per k-step the 16 int8 B values widen to one i32
  // vector once, then feed four broadcast multiply-accumulate chains.
  // Integer arithmetic is exact, so blocking cannot change the result.
  const std::int64_t n16 = n & ~std::int64_t{15};
  const std::int64_t m4 = m & ~std::int64_t{3};
  for (std::int64_t j0 = 0; j0 < n16; j0 += 16) {
    for (std::int64_t i0 = 0; i0 < m; i0 += 4) {
      const std::int64_t in = (i0 < m4) ? 4 : m - i0;
      __m512i acc[4];
      for (std::int64_t r = 0; r < in; ++r)
        acc[r] = _mm512_loadu_si512(c + (i0 + r) * ldc + j0);
      for (std::int64_t kk = 0; kk < k; ++kk) {
        const __m512i bv = _mm512_cvtepi8_epi32(_mm_loadu_si128(
            reinterpret_cast<const __m128i*>(b + kk * ldb + j0)));
        const std::int8_t* arow = a + kk * lda + i0;
        for (std::int64_t r = 0; r < in; ++r) {
          const std::int32_t aki = arow[r];
          if (aki == 0) continue;
          acc[r] = _mm512_add_epi32(
              acc[r], _mm512_mullo_epi32(_mm512_set1_epi32(aki), bv));
        }
      }
      for (std::int64_t r = 0; r < in; ++r)
        _mm512_storeu_si512(c + (i0 + r) * ldc + j0, acc[r]);
    }
  }
  if (n16 < n) {
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const std::int8_t* arow = a + kk * lda;
      const std::int8_t* brow = b + kk * ldb;
      for (std::int64_t i = 0; i < m; ++i) {
        const std::int32_t aki = arow[i];
        if (aki == 0) continue;
        std::int32_t* crow = c + i * ldc;
        for (std::int64_t j = n16; j < n; ++j) crow[j] += aki * brow[j];
      }
    }
  }
}

void adc_shift_add_i32_avx512(float* acc, const std::int32_t* dot,
                              const float* baseline, std::int64_t n,
                              float dot_unit, float full_scale, float steps,
                              float shift) {
  const __m512 zero = _mm512_setzero_ps();
  const __m512 vdu = _mm512_set1_ps(dot_unit);
  const __m512 vfs = _mm512_set1_ps(full_scale);
  const __m512 vsteps = _mm512_set1_ps(steps);
  const __m512 vshift = _mm512_set1_ps(shift);
  const std::int64_t n16 = n & ~std::int64_t{15};
  for (std::int64_t i = 0; i < n16; i += 16) {
    const __m512 vd = _mm512_cvtepi32_ps(_mm512_loadu_si512(dot + i));
    const __m512 vb = _mm512_loadu_ps(baseline + i);
    // Unfused mul+add to match the scalar reference bit-for-bit.
    const __m512 cur = _mm512_add_ps(vb, _mm512_mul_ps(vdu, vd));
    const __m512 clamped = _mm512_min_ps(_mm512_max_ps(cur, zero), vfs);
    const __m512 r =
        round_nonneg(_mm512_mul_ps(_mm512_div_ps(clamped, vfs), vsteps));
    const __m512 q = _mm512_div_ps(_mm512_mul_ps(r, vfs), vsteps);
    const __m512 d = _mm512_sub_ps(q, vb);
    _mm512_storeu_ps(acc + i, _mm512_add_ps(_mm512_loadu_ps(acc + i),
                                            _mm512_mul_ps(vshift, d)));
  }
  for (std::int64_t i = n16; i < n; ++i) {
    const float cur = baseline[i] + dot_unit * static_cast<float>(dot[i]);
    const float clamped = std::clamp(cur, 0.0f, full_scale);
    const float q = std::round(clamped / full_scale * steps) * full_scale /
                    steps;
    acc[i] += shift * (q - baseline[i]);
  }
}

}  // namespace nvm::simd::detail

#else  // !NVM_SIMD_AVX512_TU — linker stubs, unreachable behind dispatch.

#include "common/check.h"

namespace nvm::simd::detail {

bool avx512_tu_compiled() { return false; }

namespace {
[[noreturn]] void stub_fail() {
  throw nvm::CheckError(
      "nvm::simd AVX-512 kernel called but NVM_ENABLE_AVX512 was off");
}
}  // namespace

float dot_avx512(const float*, const float*, std::int64_t) { stub_fail(); }
void axpy_avx512(float*, const float*, float, std::int64_t) { stub_fail(); }
void madd_avx512(float*, const float*, float, std::int64_t) { stub_fail(); }
void scale_avx512(float*, const float*, float, std::int64_t) { stub_fail(); }
void tanh_block_avx512(float*, std::int64_t) { stub_fail(); }
void gemm_avx512(float*, const float*, const float*, std::int64_t,
                 std::int64_t, std::int64_t, std::int64_t, std::int64_t,
                 std::int64_t) {
  stub_fail();
}
void mlp_tanh_accum_avx512(float*, const float*, const float*,
                           const float*, const float*, std::int64_t,
                           std::int64_t, std::int64_t, std::int64_t,
                           std::int64_t, std::int64_t) {
  stub_fail();
}
void gemm_at_avx512(float*, const float*, const float*, std::int64_t,
                    std::int64_t, std::int64_t, std::int64_t, std::int64_t,
                    std::int64_t) {
  stub_fail();
}
void gemm_bt_avx512(float*, const float*, const float*, std::int64_t,
                    std::int64_t, std::int64_t, std::int64_t, std::int64_t,
                    std::int64_t) {
  stub_fail();
}
void gemm_f64acc_avx512(float*, const float*, const float*, std::int64_t,
                        std::int64_t, std::int64_t, std::int64_t,
                        std::int64_t, std::int64_t) {
  stub_fail();
}
void quantize_affine_avx512(float*, const float*, std::int64_t, float,
                            float) {
  stub_fail();
}
void adc_shift_add_avx512(float*, const float*, const float*, std::int64_t,
                          float, float, float) {
  stub_fail();
}
void quantize_to_i8_avx512(std::int8_t*, const float*, std::int64_t, float,
                           float) {
  stub_fail();
}
void quantize_to_i16_avx512(std::int16_t*, const float*, std::int64_t, float,
                            float) {
  stub_fail();
}
void gemm_at_i8_i32acc_avx512(std::int32_t*, const std::int8_t*,
                              const std::int8_t*, std::int64_t, std::int64_t,
                              std::int64_t, std::int64_t, std::int64_t,
                              std::int64_t) {
  stub_fail();
}
void adc_shift_add_i32_avx512(float*, const std::int32_t*, const float*,
                              std::int64_t, float, float, float, float) {
  stub_fail();
}

}  // namespace nvm::simd::detail

#endif  // NVM_SIMD_AVX512_TU
