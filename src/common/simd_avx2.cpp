// AVX2/FMA kernel variants. This is the only translation unit built with
// -mavx2 -mfma (per-file flags from src/common/CMakeLists.txt, applied
// only when NVM_ENABLE_AVX2 is on — otherwise the stubs at the bottom are
// compiled and the runtime dispatcher never routes here).
//
// Parity rules mirrored from simd.h: [exact] kernels use the same
// unfused mul/add sequence as the scalar reference in simd.cpp; [~ulp]
// kernels (dot, axpy, gemm, gemm_at, gemm_bt) use FMA in the vector body.
// Tail lanes (past the last full vector) are unfused like the reference:
// scalar loops, or in the gemm microtiles one masked vector of mul then
// add (the whole build carries -ffp-contract=off; FMA only appears via
// intrinsics).
#include "common/simd_kernels.h"

#ifdef NVM_SIMD_AVX2_TU

#include <immintrin.h>

#include <algorithm>
#include <cmath>

#include "common/simd.h"

namespace nvm::simd::detail {

bool avx2_tu_compiled() { return true; }

namespace {

/// Reduction of the 8 strided lanes in the documented fixed tree.
inline float reduce_lanes(const float lanes[8]) {
  return ((lanes[0] + lanes[4]) + (lanes[2] + lanes[6])) +
         ((lanes[1] + lanes[5]) + (lanes[3] + lanes[7]));
}

/// round-half-away-from-zero for non-negative t: floor(t) + (frac >= 0.5).
/// frac = t - floor(t) is exact (Sterbenz), so this matches std::round on
/// the whole non-negative domain including ties.
inline __m256 round_nonneg(__m256 t) {
  const __m256 fl = _mm256_floor_ps(t);
  const __m256 frac = _mm256_sub_ps(t, fl);
  const __m256 ge =
      _mm256_cmp_ps(frac, _mm256_set1_ps(0.5f), _CMP_GE_OQ);
  return _mm256_add_ps(fl, _mm256_and_ps(ge, _mm256_set1_ps(1.0f)));
}

}  // namespace

float dot_avx2(const float* a, const float* b, std::int64_t n) {
  const std::int64_t n8 = n & ~std::int64_t{7};
  __m256 acc = _mm256_setzero_ps();
  for (std::int64_t i = 0; i < n8; i += 8)
    acc = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i),
                          acc);
  alignas(32) float lanes[8];
  _mm256_store_ps(lanes, acc);
  for (std::int64_t i = n8; i < n; ++i) lanes[i & 7] += a[i] * b[i];
  return reduce_lanes(lanes);
}

void axpy_avx2(float* y, const float* x, float alpha, std::int64_t n) {
  const __m256 va = _mm256_set1_ps(alpha);
  const std::int64_t n8 = n & ~std::int64_t{7};
  for (std::int64_t i = 0; i < n8; i += 8)
    _mm256_storeu_ps(
        y + i, _mm256_fmadd_ps(va, _mm256_loadu_ps(x + i),
                               _mm256_loadu_ps(y + i)));
  for (std::int64_t i = n8; i < n; ++i) y[i] += alpha * x[i];
}

void madd_avx2(float* y, const float* x, float alpha, std::int64_t n) {
  const __m256 va = _mm256_set1_ps(alpha);
  const std::int64_t n8 = n & ~std::int64_t{7};
  for (std::int64_t i = 0; i < n8; i += 8) {
    const __m256 t = _mm256_mul_ps(va, _mm256_loadu_ps(x + i));
    _mm256_storeu_ps(y + i, _mm256_add_ps(_mm256_loadu_ps(y + i), t));
  }
  for (std::int64_t i = n8; i < n; ++i) {
    const float t = alpha * x[i];
    y[i] = y[i] + t;
  }
}

void scale_avx2(float* y, const float* x, float alpha, std::int64_t n) {
  const __m256 va = _mm256_set1_ps(alpha);
  const std::int64_t n8 = n & ~std::int64_t{7};
  for (std::int64_t i = 0; i < n8; i += 8)
    _mm256_storeu_ps(y + i, _mm256_mul_ps(va, _mm256_loadu_ps(x + i)));
  for (std::int64_t i = n8; i < n; ++i) y[i] = alpha * x[i];
}

namespace {

/// tanh_fast's op sequence on 8 lanes; saturation applied by blend.
inline __m256 tanh8(__m256 v) {
  const __m256 c0 = _mm256_set1_ps(135135.0f);
  const __m256 x2 = _mm256_mul_ps(v, v);
  __m256 p = _mm256_add_ps(_mm256_set1_ps(378.0f), x2);
  p = _mm256_add_ps(_mm256_set1_ps(17325.0f), _mm256_mul_ps(x2, p));
  p = _mm256_add_ps(c0, _mm256_mul_ps(x2, p));
  p = _mm256_mul_ps(v, p);
  __m256 q = _mm256_add_ps(_mm256_set1_ps(3150.0f),
                           _mm256_mul_ps(x2, _mm256_set1_ps(28.0f)));
  q = _mm256_add_ps(_mm256_set1_ps(62370.0f), _mm256_mul_ps(x2, q));
  q = _mm256_add_ps(c0, _mm256_mul_ps(x2, q));
  __m256 r = _mm256_div_ps(p, q);
  r = _mm256_blendv_ps(
      r, _mm256_set1_ps(1.0f),
      _mm256_cmp_ps(v, _mm256_set1_ps(4.97f), _CMP_GT_OQ));
  r = _mm256_blendv_ps(
      r, _mm256_set1_ps(-1.0f),
      _mm256_cmp_ps(v, _mm256_set1_ps(-4.97f), _CMP_LT_OQ));
  return r;
}

}  // namespace

void tanh_block_avx2(float* x, std::int64_t n) {
  const std::int64_t n8 = n & ~std::int64_t{7};
  for (std::int64_t i = 0; i < n8; i += 8)
    _mm256_storeu_ps(x + i, tanh8(_mm256_loadu_ps(x + i)));
  for (std::int64_t i = n8; i < n; ++i) x[i] = tanh_fast(x[i]);
}

namespace {

/// Load/store mask of the first `lanes` (1..7) of an 8-float vector.
inline __m256i tail_mask(std::int64_t lanes) {
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(lanes)),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

/// One output row of C += A*B style accumulation: crow[j] accumulates
/// coef(kk) * b[kk*ldb + j] sequentially over kk, FMA in the vector body.
/// The lanes past the last full vector run as one masked vector with an
/// unfused mul then add, the scalar reference's op per lane.
template <typename Coef>
inline void gemm_row_fma(float* crow, const float* b, std::int64_t n,
                         std::int64_t k, std::int64_t ldb, Coef coef) {
  const std::int64_t n8 = n & ~std::int64_t{7};
  for (std::int64_t j0 = 0; j0 < n8; j0 += 8) {
    __m256 acc = _mm256_loadu_ps(crow + j0);
    for (std::int64_t kk = 0; kk < k; ++kk)
      acc = _mm256_fmadd_ps(_mm256_set1_ps(coef(kk)),
                            _mm256_loadu_ps(b + kk * ldb + j0), acc);
    _mm256_storeu_ps(crow + j0, acc);
  }
  if (n8 == n) return;
  const __m256i tail = tail_mask(n - n8);
  __m256 acc = _mm256_maskload_ps(crow + n8, tail);
  for (std::int64_t kk = 0; kk < k; ++kk)
    acc = _mm256_add_ps(
        acc, _mm256_mul_ps(_mm256_set1_ps(coef(kk)),
                           _mm256_maskload_ps(b + kk * ldb + n8, tail)));
  _mm256_maskstore_ps(crow + n8, tail, acc);
}

/// 4x8 microtile: four independent FMA chains over k for ILP. `coef(r,kk)`
/// yields the A element for microtile row r at reduction index kk.
/// Tail lanes as in gemm_row_fma, four masked chains sharing each B load.
template <typename Coef>
inline void gemm_tile4_fma(float* c, const float* b, std::int64_t n,
                           std::int64_t k, std::int64_t ldb, std::int64_t ldc,
                           Coef coef) {
  const std::int64_t n8 = n & ~std::int64_t{7};
  for (std::int64_t j0 = 0; j0 < n8; j0 += 8) {
    __m256 acc0 = _mm256_loadu_ps(c + 0 * ldc + j0);
    __m256 acc1 = _mm256_loadu_ps(c + 1 * ldc + j0);
    __m256 acc2 = _mm256_loadu_ps(c + 2 * ldc + j0);
    __m256 acc3 = _mm256_loadu_ps(c + 3 * ldc + j0);
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const __m256 bv = _mm256_loadu_ps(b + kk * ldb + j0);
      acc0 = _mm256_fmadd_ps(_mm256_set1_ps(coef(0, kk)), bv, acc0);
      acc1 = _mm256_fmadd_ps(_mm256_set1_ps(coef(1, kk)), bv, acc1);
      acc2 = _mm256_fmadd_ps(_mm256_set1_ps(coef(2, kk)), bv, acc2);
      acc3 = _mm256_fmadd_ps(_mm256_set1_ps(coef(3, kk)), bv, acc3);
    }
    _mm256_storeu_ps(c + 0 * ldc + j0, acc0);
    _mm256_storeu_ps(c + 1 * ldc + j0, acc1);
    _mm256_storeu_ps(c + 2 * ldc + j0, acc2);
    _mm256_storeu_ps(c + 3 * ldc + j0, acc3);
  }
  if (n8 == n) return;
  const __m256i tail = tail_mask(n - n8);
  __m256 acc0 = _mm256_maskload_ps(c + 0 * ldc + n8, tail);
  __m256 acc1 = _mm256_maskload_ps(c + 1 * ldc + n8, tail);
  __m256 acc2 = _mm256_maskload_ps(c + 2 * ldc + n8, tail);
  __m256 acc3 = _mm256_maskload_ps(c + 3 * ldc + n8, tail);
  for (std::int64_t kk = 0; kk < k; ++kk) {
    const __m256 bv = _mm256_maskload_ps(b + kk * ldb + n8, tail);
    acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(_mm256_set1_ps(coef(0, kk)), bv));
    acc1 = _mm256_add_ps(acc1, _mm256_mul_ps(_mm256_set1_ps(coef(1, kk)), bv));
    acc2 = _mm256_add_ps(acc2, _mm256_mul_ps(_mm256_set1_ps(coef(2, kk)), bv));
    acc3 = _mm256_add_ps(acc3, _mm256_mul_ps(_mm256_set1_ps(coef(3, kk)), bv));
  }
  _mm256_maskstore_ps(c + 0 * ldc + n8, tail, acc0);
  _mm256_maskstore_ps(c + 1 * ldc + n8, tail, acc1);
  _mm256_maskstore_ps(c + 2 * ldc + n8, tail, acc2);
  _mm256_maskstore_ps(c + 3 * ldc + n8, tail, acc3);
}

}  // namespace

void gemm_avx2(float* c, const float* a, const float* b, std::int64_t m,
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

void mlp_tanh_accum_avx2(float* y, const float* h0, const float* a,
                         const float* x, const float* w2, std::int64_t hidden,
                         std::int64_t n, std::int64_t k, std::int64_t ldh,
                         std::int64_t lda, std::int64_t ldx) {
  // Lanes below n8 take gemm_avx2's FMA body in both layers, the rest its
  // unfused tail's ops (here one lane at a time); tanh is exact either way.
  const std::int64_t n8 = n & ~std::int64_t{7};
  for (std::int64_t j0 = 0; j0 < n8; j0 += 8) {
    __m256 yv = _mm256_loadu_ps(y + j0);
    for (std::int64_t h = 0; h < hidden; ++h) {
      const float* ah = a + h * lda;
      __m256 t = _mm256_loadu_ps(h0 + h * ldh + j0);
      for (std::int64_t f = 0; f < k; ++f)
        t = _mm256_fmadd_ps(_mm256_set1_ps(ah[f]),
                            _mm256_loadu_ps(x + f * ldx + j0), t);
      yv = _mm256_fmadd_ps(_mm256_set1_ps(w2[h]), tanh8(t), yv);
    }
    _mm256_storeu_ps(y + j0, yv);
  }
  for (std::int64_t j = n8; j < n; ++j) {
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

void gemm_at_avx2(float* c, const float* a, const float* b, std::int64_t m,
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

void gemm_bt_avx2(float* c, const float* a, const float* b, std::int64_t m,
                  std::int64_t n, std::int64_t k, std::int64_t lda,
                  std::int64_t ldb, std::int64_t ldc) {
  for (std::int64_t i = 0; i < m; ++i) {
    const float* arow = a + i * lda;
    float* crow = c + i * ldc;
    for (std::int64_t j = 0; j < n; ++j)
      crow[j] += dot_avx2(arow, b + j * ldb, k);
  }
}

void gemm_f64acc_avx2(float* out, const float* a, const float* v,
                      std::int64_t m, std::int64_t n, std::int64_t k,
                      std::int64_t lda, std::int64_t ldv, std::int64_t ldo) {
  // double(a)*double(v) is exact (24+24 significand bits fit in 53), so
  // fmadd_pd rounds exactly like the scalar reference's mul-then-add —
  // this kernel is bit-identical to gemm_f64acc_scalar.
  const std::int64_t n8 = n & ~std::int64_t{7};
  for (std::int64_t i = 0; i < m; ++i) {
    const float* arow = a + i * lda;
    for (std::int64_t j0 = 0; j0 < n8; j0 += 8) {
      __m256d acc_lo = _mm256_setzero_pd();
      __m256d acc_hi = _mm256_setzero_pd();
      for (std::int64_t kk = 0; kk < k; ++kk) {
        const __m256d av = _mm256_set1_pd(static_cast<double>(arow[kk]));
        const __m256 vf = _mm256_loadu_ps(v + kk * ldv + j0);
        acc_lo = _mm256_fmadd_pd(
            av, _mm256_cvtps_pd(_mm256_castps256_ps128(vf)), acc_lo);
        acc_hi = _mm256_fmadd_pd(
            av, _mm256_cvtps_pd(_mm256_extractf128_ps(vf, 1)), acc_hi);
      }
      const __m128 f_lo = _mm256_cvtpd_ps(acc_lo);
      const __m128 f_hi = _mm256_cvtpd_ps(acc_hi);
      _mm256_storeu_ps(out + i * ldo + j0,
                       _mm256_set_m128(f_hi, f_lo));
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

void quantize_affine_avx2(float* out, const float* x, std::int64_t n,
                          float scale, float qmax) {
  const __m256 zero = _mm256_setzero_ps();
  const __m256 vs = _mm256_set1_ps(scale);
  const __m256 vq = _mm256_set1_ps(qmax);
  const std::int64_t n8 = n & ~std::int64_t{7};
  for (std::int64_t i = 0; i < n8; i += 8) {
    const __m256 clipped =
        _mm256_min_ps(_mm256_max_ps(_mm256_loadu_ps(x + i), zero), vs);
    const __m256 t = _mm256_mul_ps(_mm256_div_ps(clipped, vs), vq);
    _mm256_storeu_ps(out + i, round_nonneg(t));
  }
  for (std::int64_t i = n8; i < n; ++i) {
    const float clipped = std::clamp(x[i], 0.0f, scale);
    out[i] = std::round(clipped / scale * qmax);
  }
}

void adc_shift_add_avx2(float* acc, const float* cur, const float* baseline,
                        std::int64_t n, float full_scale, float steps,
                        float shift) {
  const __m256 zero = _mm256_setzero_ps();
  const __m256 vfs = _mm256_set1_ps(full_scale);
  const __m256 vsteps = _mm256_set1_ps(steps);
  const __m256 vshift = _mm256_set1_ps(shift);
  const std::int64_t n8 = n & ~std::int64_t{7};
  for (std::int64_t i = 0; i < n8; i += 8) {
    const __m256 clamped =
        _mm256_min_ps(_mm256_max_ps(_mm256_loadu_ps(cur + i), zero), vfs);
    const __m256 r =
        round_nonneg(_mm256_mul_ps(_mm256_div_ps(clamped, vfs), vsteps));
    const __m256 q = _mm256_div_ps(_mm256_mul_ps(r, vfs), vsteps);
    const __m256 d = _mm256_sub_ps(q, _mm256_loadu_ps(baseline + i));
    // Unfused mul+add to match the scalar reference bit-for-bit.
    _mm256_storeu_ps(acc + i, _mm256_add_ps(_mm256_loadu_ps(acc + i),
                                            _mm256_mul_ps(vshift, d)));
  }
  for (std::int64_t i = n8; i < n; ++i) {
    const float clamped = std::clamp(cur[i], 0.0f, full_scale);
    const float q = std::round(clamped / full_scale * steps) * full_scale /
                    steps;
    acc[i] += shift * (q - baseline[i]);
  }
}

namespace {

/// Rounded quantization codes for 8 floats, as i32 (codes are integral, so
/// cvtps_epi32's round-to-nearest-even cannot move them).
inline __m256i quantize_codes8(const float* x, __m256 vs, __m256 vq) {
  const __m256 clipped =
      _mm256_min_ps(_mm256_max_ps(_mm256_loadu_ps(x), _mm256_setzero_ps()),
                    vs);
  const __m256 t = _mm256_mul_ps(_mm256_div_ps(clipped, vs), vq);
  return _mm256_cvtps_epi32(round_nonneg(t));
}

}  // namespace

void quantize_to_i8_avx2(std::int8_t* out, const float* x, std::int64_t n,
                         float scale, float qmax) {
  const __m256 vs = _mm256_set1_ps(scale);
  const __m256 vq = _mm256_set1_ps(qmax);
  const std::int64_t n8 = n & ~std::int64_t{7};
  alignas(32) std::int32_t tmp[8];
  for (std::int64_t i = 0; i < n8; i += 8) {
    _mm256_store_si256(reinterpret_cast<__m256i*>(tmp),
                       quantize_codes8(x + i, vs, vq));
    for (int l = 0; l < 8; ++l)
      out[i + l] = static_cast<std::int8_t>(tmp[l]);
  }
  for (std::int64_t i = n8; i < n; ++i) {
    const float clipped = std::clamp(x[i], 0.0f, scale);
    out[i] = static_cast<std::int8_t>(std::round(clipped / scale * qmax));
  }
}

void quantize_to_i16_avx2(std::int16_t* out, const float* x, std::int64_t n,
                          float scale, float qmax) {
  const __m256 vs = _mm256_set1_ps(scale);
  const __m256 vq = _mm256_set1_ps(qmax);
  const std::int64_t n8 = n & ~std::int64_t{7};
  alignas(32) std::int32_t tmp[8];
  for (std::int64_t i = 0; i < n8; i += 8) {
    _mm256_store_si256(reinterpret_cast<__m256i*>(tmp),
                       quantize_codes8(x + i, vs, vq));
    for (int l = 0; l < 8; ++l)
      out[i + l] = static_cast<std::int16_t>(tmp[l]);
  }
  for (std::int64_t i = n8; i < n; ++i) {
    const float clipped = std::clamp(x[i], 0.0f, scale);
    out[i] = static_cast<std::int16_t>(std::round(clipped / scale * qmax));
  }
}

void gemm_at_i8_i32acc_avx2(std::int32_t* c, const std::int8_t* a,
                            const std::int8_t* b, std::int64_t m,
                            std::int64_t n, std::int64_t k, std::int64_t lda,
                            std::int64_t ldb, std::int64_t ldc) {
  // 4x16 microtiles: per k-step the 16 int8 B values widen to two i32
  // vectors once, then feed four broadcast multiply-accumulate chains.
  // Integer arithmetic is exact, so blocking cannot change the result.
  const std::int64_t n16 = n & ~std::int64_t{15};
  const std::int64_t m4 = m & ~std::int64_t{3};
  for (std::int64_t j0 = 0; j0 < n16; j0 += 16) {
    for (std::int64_t i0 = 0; i0 < m; i0 += 4) {
      const std::int64_t in = (i0 < m4) ? 4 : m - i0;
      __m256i acc[4][2];
      for (std::int64_t r = 0; r < in; ++r) {
        acc[r][0] = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(c + (i0 + r) * ldc + j0));
        acc[r][1] = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(c + (i0 + r) * ldc + j0 + 8));
      }
      for (std::int64_t kk = 0; kk < k; ++kk) {
        const __m128i bv = _mm_loadu_si128(
            reinterpret_cast<const __m128i*>(b + kk * ldb + j0));
        const __m256i b_lo = _mm256_cvtepi8_epi32(bv);
        const __m256i b_hi = _mm256_cvtepi8_epi32(_mm_srli_si128(bv, 8));
        const std::int8_t* arow = a + kk * lda + i0;
        for (std::int64_t r = 0; r < in; ++r) {
          const std::int32_t aki = arow[r];
          if (aki == 0) continue;
          const __m256i va = _mm256_set1_epi32(aki);
          acc[r][0] =
              _mm256_add_epi32(acc[r][0], _mm256_mullo_epi32(va, b_lo));
          acc[r][1] =
              _mm256_add_epi32(acc[r][1], _mm256_mullo_epi32(va, b_hi));
        }
      }
      for (std::int64_t r = 0; r < in; ++r) {
        _mm256_storeu_si256(
            reinterpret_cast<__m256i*>(c + (i0 + r) * ldc + j0), acc[r][0]);
        _mm256_storeu_si256(
            reinterpret_cast<__m256i*>(c + (i0 + r) * ldc + j0 + 8),
            acc[r][1]);
      }
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

void adc_shift_add_i32_avx2(float* acc, const std::int32_t* dot,
                            const float* baseline, std::int64_t n,
                            float dot_unit, float full_scale, float steps,
                            float shift) {
  const __m256 zero = _mm256_setzero_ps();
  const __m256 vdu = _mm256_set1_ps(dot_unit);
  const __m256 vfs = _mm256_set1_ps(full_scale);
  const __m256 vsteps = _mm256_set1_ps(steps);
  const __m256 vshift = _mm256_set1_ps(shift);
  const std::int64_t n8 = n & ~std::int64_t{7};
  for (std::int64_t i = 0; i < n8; i += 8) {
    const __m256 vd = _mm256_cvtepi32_ps(_mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(dot + i)));
    const __m256 vb = _mm256_loadu_ps(baseline + i);
    // Unfused mul+add to match the scalar reference bit-for-bit.
    const __m256 cur = _mm256_add_ps(vb, _mm256_mul_ps(vdu, vd));
    const __m256 clamped = _mm256_min_ps(_mm256_max_ps(cur, zero), vfs);
    const __m256 r =
        round_nonneg(_mm256_mul_ps(_mm256_div_ps(clamped, vfs), vsteps));
    const __m256 q = _mm256_div_ps(_mm256_mul_ps(r, vfs), vsteps);
    const __m256 d = _mm256_sub_ps(q, vb);
    _mm256_storeu_ps(acc + i, _mm256_add_ps(_mm256_loadu_ps(acc + i),
                                            _mm256_mul_ps(vshift, d)));
  }
  for (std::int64_t i = n8; i < n; ++i) {
    const float cur = baseline[i] + dot_unit * static_cast<float>(dot[i]);
    const float clamped = std::clamp(cur, 0.0f, full_scale);
    const float q = std::round(clamped / full_scale * steps) * full_scale /
                    steps;
    acc[i] += shift * (q - baseline[i]);
  }
}

}  // namespace nvm::simd::detail

#else  // !NVM_SIMD_AVX2_TU — linker stubs, unreachable behind the dispatch.

#include "common/check.h"

namespace nvm::simd::detail {

bool avx2_tu_compiled() { return false; }

namespace {
[[noreturn]] void stub_fail() {
  throw nvm::CheckError(
      "nvm::simd AVX2 kernel called but NVM_ENABLE_AVX2 was off");
}
}  // namespace

float dot_avx2(const float*, const float*, std::int64_t) { stub_fail(); }
void axpy_avx2(float*, const float*, float, std::int64_t) { stub_fail(); }
void madd_avx2(float*, const float*, float, std::int64_t) { stub_fail(); }
void scale_avx2(float*, const float*, float, std::int64_t) { stub_fail(); }
void tanh_block_avx2(float*, std::int64_t) { stub_fail(); }
void gemm_avx2(float*, const float*, const float*, std::int64_t, std::int64_t,
               std::int64_t, std::int64_t, std::int64_t, std::int64_t) {
  stub_fail();
}
void mlp_tanh_accum_avx2(float*, const float*, const float*, const float*,
                         const float*, std::int64_t, std::int64_t,
                         std::int64_t, std::int64_t, std::int64_t,
                         std::int64_t) {
  stub_fail();
}
void gemm_at_avx2(float*, const float*, const float*, std::int64_t,
                  std::int64_t, std::int64_t, std::int64_t, std::int64_t,
                  std::int64_t) {
  stub_fail();
}
void gemm_bt_avx2(float*, const float*, const float*, std::int64_t,
                  std::int64_t, std::int64_t, std::int64_t, std::int64_t,
                  std::int64_t) {
  stub_fail();
}
void gemm_f64acc_avx2(float*, const float*, const float*, std::int64_t,
                      std::int64_t, std::int64_t, std::int64_t, std::int64_t,
                      std::int64_t) {
  stub_fail();
}
void quantize_affine_avx2(float*, const float*, std::int64_t, float, float) {
  stub_fail();
}
void adc_shift_add_avx2(float*, const float*, const float*, std::int64_t,
                        float, float, float) {
  stub_fail();
}
void quantize_to_i8_avx2(std::int8_t*, const float*, std::int64_t, float,
                         float) {
  stub_fail();
}
void quantize_to_i16_avx2(std::int16_t*, const float*, std::int64_t, float,
                          float) {
  stub_fail();
}
void gemm_at_i8_i32acc_avx2(std::int32_t*, const std::int8_t*,
                            const std::int8_t*, std::int64_t, std::int64_t,
                            std::int64_t, std::int64_t, std::int64_t,
                            std::int64_t) {
  stub_fail();
}
void adc_shift_add_i32_avx2(float*, const std::int32_t*, const float*,
                            std::int64_t, float, float, float, float) {
  stub_fail();
}

}  // namespace nvm::simd::detail

#endif  // NVM_SIMD_AVX2_TU
