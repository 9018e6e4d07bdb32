// NEON (AArch64 Advanced SIMD) kernel variants. Built with real kernels
// only when NVM_ENABLE_NEON is on AND the target is AArch64; everywhere
// else this TU provides throwing stubs the dispatcher never reaches.
//
// Parity rules mirrored from simd.h: [exact] kernels repeat the scalar
// reference's unfused per-element op sequence 4 lanes at a time (NEON
// float ops are IEEE-754 compliant on AArch64); [~ulp] kernels use vfmaq
// in the vector body and unfused ops in the tail (the gemm tails run as
// 4-lane vmulq+vaddq, the scalar op per lane); dot uses two float32x4
// accumulators so its lane layout matches the documented 8-strided-lane
// tree exactly. vrndaq_f32
// rounds half away from zero, which is std::round's semantics, so the
// quantize/ADC kernels need no floor+frac trick here. gemm_f64acc uses
// vfmaq_f64 on exact float*float products — bit-identical to the scalar
// reference (24+24 significand bits fit in 53).
#include "common/simd_kernels.h"

#if defined(NVM_SIMD_NEON_TU) && defined(__aarch64__)

#include <arm_neon.h>

#include <algorithm>
#include <cmath>

#include "common/simd.h"

namespace nvm::simd::detail {

bool neon_tu_compiled() { return true; }

namespace {

/// Reduction of the 8 strided lanes in the documented fixed tree.
inline float reduce_lanes(const float lanes[8]) {
  return ((lanes[0] + lanes[4]) + (lanes[2] + lanes[6])) +
         ((lanes[1] + lanes[5]) + (lanes[3] + lanes[7]));
}

}  // namespace

float dot_neon(const float* a, const float* b, std::int64_t n) {
  // acc0 holds lanes 0..3, acc1 lanes 4..7 of the 8-lane tree.
  const std::int64_t n8 = n & ~std::int64_t{7};
  float32x4_t acc0 = vdupq_n_f32(0.0f);
  float32x4_t acc1 = vdupq_n_f32(0.0f);
  for (std::int64_t i = 0; i < n8; i += 8) {
    acc0 = vfmaq_f32(acc0, vld1q_f32(a + i), vld1q_f32(b + i));
    acc1 = vfmaq_f32(acc1, vld1q_f32(a + i + 4), vld1q_f32(b + i + 4));
  }
  float lanes[8];
  vst1q_f32(lanes, acc0);
  vst1q_f32(lanes + 4, acc1);
  for (std::int64_t i = n8; i < n; ++i) lanes[i & 7] += a[i] * b[i];
  return reduce_lanes(lanes);
}

void axpy_neon(float* y, const float* x, float alpha, std::int64_t n) {
  const float32x4_t va = vdupq_n_f32(alpha);
  const std::int64_t n4 = n & ~std::int64_t{3};
  for (std::int64_t i = 0; i < n4; i += 4)
    vst1q_f32(y + i, vfmaq_f32(vld1q_f32(y + i), va, vld1q_f32(x + i)));
  for (std::int64_t i = n4; i < n; ++i) y[i] += alpha * x[i];
}

void madd_neon(float* y, const float* x, float alpha, std::int64_t n) {
  const float32x4_t va = vdupq_n_f32(alpha);
  const std::int64_t n4 = n & ~std::int64_t{3};
  for (std::int64_t i = 0; i < n4; i += 4) {
    const float32x4_t t = vmulq_f32(va, vld1q_f32(x + i));
    vst1q_f32(y + i, vaddq_f32(vld1q_f32(y + i), t));
  }
  for (std::int64_t i = n4; i < n; ++i) {
    const float t = alpha * x[i];
    y[i] = y[i] + t;
  }
}

void scale_neon(float* y, const float* x, float alpha, std::int64_t n) {
  const float32x4_t va = vdupq_n_f32(alpha);
  const std::int64_t n4 = n & ~std::int64_t{3};
  for (std::int64_t i = 0; i < n4; i += 4)
    vst1q_f32(y + i, vmulq_f32(va, vld1q_f32(x + i)));
  for (std::int64_t i = n4; i < n; ++i) y[i] = alpha * x[i];
}

namespace {

/// tanh_fast's op sequence on 4 lanes; saturation applied by bsl.
inline float32x4_t tanh4(float32x4_t v) {
  const float32x4_t c0 = vdupq_n_f32(135135.0f);
  const float32x4_t x2 = vmulq_f32(v, v);
  float32x4_t p = vaddq_f32(vdupq_n_f32(378.0f), x2);
  p = vaddq_f32(vdupq_n_f32(17325.0f), vmulq_f32(x2, p));
  p = vaddq_f32(c0, vmulq_f32(x2, p));
  p = vmulq_f32(v, p);
  float32x4_t q =
      vaddq_f32(vdupq_n_f32(3150.0f), vmulq_f32(x2, vdupq_n_f32(28.0f)));
  q = vaddq_f32(vdupq_n_f32(62370.0f), vmulq_f32(x2, q));
  q = vaddq_f32(c0, vmulq_f32(x2, q));
  float32x4_t r = vdivq_f32(p, q);
  r = vbslq_f32(vcgtq_f32(v, vdupq_n_f32(4.97f)), vdupq_n_f32(1.0f), r);
  r = vbslq_f32(vcltq_f32(v, vdupq_n_f32(-4.97f)), vdupq_n_f32(-1.0f), r);
  return r;
}

}  // namespace

void tanh_block_neon(float* x, std::int64_t n) {
  const std::int64_t n4 = n & ~std::int64_t{3};
  for (std::int64_t i = 0; i < n4; i += 4)
    vst1q_f32(x + i, tanh4(vld1q_f32(x + i)));
  for (std::int64_t i = n4; i < n; ++i) x[i] = tanh_fast(x[i]);
}

namespace {

/// The first `lanes` (1..4) floats at p as one vector. A partial vector
/// is copied through a zero-padded 4-float buffer, so nothing past
/// p[lanes-1] is read.
inline float32x4_t load_lanes(const float* p, std::int64_t lanes) {
  if (lanes == 4) return vld1q_f32(p);
  float buf[4] = {0.0f, 0.0f, 0.0f, 0.0f};
  std::copy(p, p + lanes, buf);
  return vld1q_f32(buf);
}

/// Stores the first `lanes` (1..4) lanes of v to p.
inline void store_lanes(float* p, float32x4_t v, std::int64_t lanes) {
  if (lanes == 4) {
    vst1q_f32(p, v);
    return;
  }
  float buf[4];
  vst1q_f32(buf, v);
  std::copy(buf, buf + lanes, p);
}

/// Columns [j0, n) of `Rows` (1..4) output rows of the gemm tail: 4-lane
/// vectors with an unfused mul then add, the scalar reference's op per
/// lane, the last partial vector through load_lanes/store_lanes. Each B
/// vector is loaded once for all rows.
template <int Rows, typename Coef>
inline void gemm_tail_unfused(float* c, const float* b, std::int64_t j0,
                              std::int64_t n, std::int64_t k,
                              std::int64_t ldb, std::int64_t ldc, Coef coef) {
  for (std::int64_t j = j0; j < n; j += 4) {
    const std::int64_t lanes = std::min<std::int64_t>(4, n - j);
    float32x4_t acc[Rows];
    for (int r = 0; r < Rows; ++r) acc[r] = load_lanes(c + r * ldc + j, lanes);
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const float32x4_t bv = load_lanes(b + kk * ldb + j, lanes);
      for (int r = 0; r < Rows; ++r)
        acc[r] = vaddq_f32(acc[r], vmulq_f32(vdupq_n_f32(coef(r, kk)), bv));
    }
    for (int r = 0; r < Rows; ++r) store_lanes(c + r * ldc + j, acc[r], lanes);
  }
}

/// One output row of C += A*B style accumulation: crow[j] accumulates
/// coef(kk) * b[kk*ldb + j] sequentially over kk, FMA in the vector body,
/// the <= 3 tail lanes through gemm_tail_unfused.
template <typename Coef>
inline void gemm_row_fma(float* crow, const float* b, std::int64_t n,
                         std::int64_t k, std::int64_t ldb, Coef coef) {
  const std::int64_t n4 = n & ~std::int64_t{3};
  for (std::int64_t j0 = 0; j0 < n4; j0 += 4) {
    float32x4_t acc = vld1q_f32(crow + j0);
    for (std::int64_t kk = 0; kk < k; ++kk)
      acc = vfmaq_f32(acc, vdupq_n_f32(coef(kk)),
                      vld1q_f32(b + kk * ldb + j0));
    vst1q_f32(crow + j0, acc);
  }
  gemm_tail_unfused<1>(crow, b, n4, n, k, ldb, 0,
                       [&](int, std::int64_t kk) { return coef(kk); });
}

/// 4x8 microtile: four rows, two vectors per row, independent FMA chains;
/// the <= 7 tail lanes through gemm_tail_unfused.
template <typename Coef>
inline void gemm_tile4_fma(float* c, const float* b, std::int64_t n,
                           std::int64_t k, std::int64_t ldb, std::int64_t ldc,
                           Coef coef) {
  const std::int64_t n8 = n & ~std::int64_t{7};
  for (std::int64_t j0 = 0; j0 < n8; j0 += 8) {
    float32x4_t a00 = vld1q_f32(c + 0 * ldc + j0);
    float32x4_t a01 = vld1q_f32(c + 0 * ldc + j0 + 4);
    float32x4_t a10 = vld1q_f32(c + 1 * ldc + j0);
    float32x4_t a11 = vld1q_f32(c + 1 * ldc + j0 + 4);
    float32x4_t a20 = vld1q_f32(c + 2 * ldc + j0);
    float32x4_t a21 = vld1q_f32(c + 2 * ldc + j0 + 4);
    float32x4_t a30 = vld1q_f32(c + 3 * ldc + j0);
    float32x4_t a31 = vld1q_f32(c + 3 * ldc + j0 + 4);
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const float32x4_t b0 = vld1q_f32(b + kk * ldb + j0);
      const float32x4_t b1 = vld1q_f32(b + kk * ldb + j0 + 4);
      const float32x4_t w0 = vdupq_n_f32(coef(0, kk));
      const float32x4_t w1 = vdupq_n_f32(coef(1, kk));
      const float32x4_t w2 = vdupq_n_f32(coef(2, kk));
      const float32x4_t w3 = vdupq_n_f32(coef(3, kk));
      a00 = vfmaq_f32(a00, w0, b0);
      a01 = vfmaq_f32(a01, w0, b1);
      a10 = vfmaq_f32(a10, w1, b0);
      a11 = vfmaq_f32(a11, w1, b1);
      a20 = vfmaq_f32(a20, w2, b0);
      a21 = vfmaq_f32(a21, w2, b1);
      a30 = vfmaq_f32(a30, w3, b0);
      a31 = vfmaq_f32(a31, w3, b1);
    }
    vst1q_f32(c + 0 * ldc + j0, a00);
    vst1q_f32(c + 0 * ldc + j0 + 4, a01);
    vst1q_f32(c + 1 * ldc + j0, a10);
    vst1q_f32(c + 1 * ldc + j0 + 4, a11);
    vst1q_f32(c + 2 * ldc + j0, a20);
    vst1q_f32(c + 2 * ldc + j0 + 4, a21);
    vst1q_f32(c + 3 * ldc + j0, a30);
    vst1q_f32(c + 3 * ldc + j0 + 4, a31);
  }
  gemm_tail_unfused<4>(c, b, n8, n, k, ldb, ldc, coef);
}

}  // namespace

void gemm_neon(float* c, const float* a, const float* b, std::int64_t m,
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

void mlp_tanh_accum_neon(float* y, const float* h0, const float* a,
                         const float* x, const float* w2, std::int64_t hidden,
                         std::int64_t n, std::int64_t k, std::int64_t ldh,
                         std::int64_t lda, std::int64_t ldx) {
  // gemm_neon's lane split, per layer: its 4-row microtiles (hidden units
  // below m4) vectorize samples below n8, its single rows (the other
  // units, and the m=1 output layer) samples below n4; everything else
  // gets the unfused tail's ops, here one lane at a time. tanh is exact
  // either way.
  const std::int64_t n4 = n & ~std::int64_t{3};
  const std::int64_t n8 = n & ~std::int64_t{7};
  const std::int64_t m4 = hidden & ~std::int64_t{3};
  for (std::int64_t j0 = 0; j0 < n4; j0 += 4) {
    float32x4_t yv = vld1q_f32(y + j0);
    for (std::int64_t h = 0; h < hidden; ++h) {
      const float* ah = a + h * lda;
      float32x4_t t;
      if (j0 < n8 || h >= m4) {
        t = vld1q_f32(h0 + h * ldh + j0);
        for (std::int64_t f = 0; f < k; ++f)
          t = vfmaq_f32(t, vdupq_n_f32(ah[f]), vld1q_f32(x + f * ldx + j0));
      } else {
        float lanes[4];
        for (int l = 0; l < 4; ++l) {
          float tl = h0[h * ldh + j0 + l];
          for (std::int64_t f = 0; f < k; ++f)
            tl += ah[f] * x[f * ldx + j0 + l];
          lanes[l] = tl;
        }
        t = vld1q_f32(lanes);
      }
      yv = vfmaq_f32(yv, vdupq_n_f32(w2[h]), tanh4(t));
    }
    vst1q_f32(y + j0, yv);
  }
  for (std::int64_t j = n4; j < n; ++j) {
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

void gemm_at_neon(float* c, const float* a, const float* b, std::int64_t m,
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

void gemm_bt_neon(float* c, const float* a, const float* b, std::int64_t m,
                  std::int64_t n, std::int64_t k, std::int64_t lda,
                  std::int64_t ldb, std::int64_t ldc) {
  for (std::int64_t i = 0; i < m; ++i) {
    const float* arow = a + i * lda;
    float* crow = c + i * ldc;
    for (std::int64_t j = 0; j < n; ++j)
      crow[j] += dot_neon(arow, b + j * ldb, k);
  }
}

void gemm_f64acc_neon(float* out, const float* a, const float* v,
                      std::int64_t m, std::int64_t n, std::int64_t k,
                      std::int64_t lda, std::int64_t ldv, std::int64_t ldo) {
  // double(a)*double(v) is exact (24+24 significand bits fit in 53), so
  // vfmaq_f64 rounds exactly like the scalar reference's mul-then-add —
  // this kernel is bit-identical to gemm_f64acc_scalar.
  const std::int64_t n4 = n & ~std::int64_t{3};
  for (std::int64_t i = 0; i < m; ++i) {
    const float* arow = a + i * lda;
    for (std::int64_t j0 = 0; j0 < n4; j0 += 4) {
      float64x2_t acc0 = vdupq_n_f64(0.0);
      float64x2_t acc1 = vdupq_n_f64(0.0);
      for (std::int64_t kk = 0; kk < k; ++kk) {
        const float64x2_t av = vdupq_n_f64(static_cast<double>(arow[kk]));
        const float32x4_t vf = vld1q_f32(v + kk * ldv + j0);
        acc0 = vfmaq_f64(acc0, av, vcvt_f64_f32(vget_low_f32(vf)));
        acc1 = vfmaq_f64(acc1, av, vcvt_high_f64_f32(vf));
      }
      const float32x2_t lo = vcvt_f32_f64(acc0);
      vst1q_f32(out + i * ldo + j0, vcvt_high_f32_f64(lo, acc1));
    }
    for (std::int64_t j = n4; j < n; ++j) {
      double acc = 0.0;
      for (std::int64_t kk = 0; kk < k; ++kk)
        acc += static_cast<double>(arow[kk]) *
               static_cast<double>(v[kk * ldv + j]);
      out[i * ldo + j] = static_cast<float>(acc);
    }
  }
}

void quantize_affine_neon(float* out, const float* x, std::int64_t n,
                          float scale, float qmax) {
  const float32x4_t zero = vdupq_n_f32(0.0f);
  const float32x4_t vs = vdupq_n_f32(scale);
  const float32x4_t vq = vdupq_n_f32(qmax);
  const std::int64_t n4 = n & ~std::int64_t{3};
  for (std::int64_t i = 0; i < n4; i += 4) {
    const float32x4_t clipped =
        vminq_f32(vmaxq_f32(vld1q_f32(x + i), zero), vs);
    const float32x4_t t = vmulq_f32(vdivq_f32(clipped, vs), vq);
    // vrndaq = round half away from zero == std::round.
    vst1q_f32(out + i, vrndaq_f32(t));
  }
  for (std::int64_t i = n4; i < n; ++i) {
    const float clipped = std::clamp(x[i], 0.0f, scale);
    out[i] = std::round(clipped / scale * qmax);
  }
}

void adc_shift_add_neon(float* acc, const float* cur, const float* baseline,
                        std::int64_t n, float full_scale, float steps,
                        float shift) {
  const float32x4_t zero = vdupq_n_f32(0.0f);
  const float32x4_t vfs = vdupq_n_f32(full_scale);
  const float32x4_t vsteps = vdupq_n_f32(steps);
  const float32x4_t vshift = vdupq_n_f32(shift);
  const std::int64_t n4 = n & ~std::int64_t{3};
  for (std::int64_t i = 0; i < n4; i += 4) {
    const float32x4_t clamped =
        vminq_f32(vmaxq_f32(vld1q_f32(cur + i), zero), vfs);
    const float32x4_t r =
        vrndaq_f32(vmulq_f32(vdivq_f32(clamped, vfs), vsteps));
    const float32x4_t q = vdivq_f32(vmulq_f32(r, vfs), vsteps);
    const float32x4_t d = vsubq_f32(q, vld1q_f32(baseline + i));
    // Unfused mul+add to match the scalar reference bit-for-bit.
    vst1q_f32(acc + i, vaddq_f32(vld1q_f32(acc + i), vmulq_f32(vshift, d)));
  }
  for (std::int64_t i = n4; i < n; ++i) {
    const float clamped = std::clamp(cur[i], 0.0f, full_scale);
    const float q = std::round(clamped / full_scale * steps) * full_scale /
                    steps;
    acc[i] += shift * (q - baseline[i]);
  }
}

namespace {

/// Rounded quantization codes for 4 floats, as i32.
inline int32x4_t quantize_codes4(const float* x, float32x4_t vs,
                                 float32x4_t vq) {
  const float32x4_t clipped =
      vminq_f32(vmaxq_f32(vld1q_f32(x), vdupq_n_f32(0.0f)), vs);
  const float32x4_t t = vmulq_f32(vdivq_f32(clipped, vs), vq);
  return vcvtq_s32_f32(vrndaq_f32(t));
}

}  // namespace

void quantize_to_i8_neon(std::int8_t* out, const float* x, std::int64_t n,
                         float scale, float qmax) {
  const float32x4_t vs = vdupq_n_f32(scale);
  const float32x4_t vq = vdupq_n_f32(qmax);
  const std::int64_t n8 = n & ~std::int64_t{7};
  for (std::int64_t i = 0; i < n8; i += 8) {
    const int16x4_t lo = vmovn_s32(quantize_codes4(x + i, vs, vq));
    const int16x4_t hi = vmovn_s32(quantize_codes4(x + i + 4, vs, vq));
    vst1_s8(out + i, vmovn_s16(vcombine_s16(lo, hi)));
  }
  for (std::int64_t i = n8; i < n; ++i) {
    const float clipped = std::clamp(x[i], 0.0f, scale);
    out[i] = static_cast<std::int8_t>(std::round(clipped / scale * qmax));
  }
}

void quantize_to_i16_neon(std::int16_t* out, const float* x, std::int64_t n,
                          float scale, float qmax) {
  const float32x4_t vs = vdupq_n_f32(scale);
  const float32x4_t vq = vdupq_n_f32(qmax);
  const std::int64_t n8 = n & ~std::int64_t{7};
  for (std::int64_t i = 0; i < n8; i += 8) {
    const int16x4_t lo = vmovn_s32(quantize_codes4(x + i, vs, vq));
    const int16x4_t hi = vmovn_s32(quantize_codes4(x + i + 4, vs, vq));
    vst1q_s16(out + i, vcombine_s16(lo, hi));
  }
  for (std::int64_t i = n8; i < n; ++i) {
    const float clipped = std::clamp(x[i], 0.0f, scale);
    out[i] = static_cast<std::int16_t>(std::round(clipped / scale * qmax));
  }
}

void gemm_at_i8_i32acc_neon(std::int32_t* c, const std::int8_t* a,
                            const std::int8_t* b, std::int64_t m,
                            std::int64_t n, std::int64_t k, std::int64_t lda,
                            std::int64_t ldb, std::int64_t ldc) {
  // Per k-step the 16 int8 B values widen once to four i32x4 registers,
  // then feed broadcast multiply-accumulate per output row. Integer
  // arithmetic is exact, so blocking cannot change the result.
  const std::int64_t n16 = n & ~std::int64_t{15};
  for (std::int64_t j0 = 0; j0 < n16; j0 += 16) {
    for (std::int64_t i = 0; i < m; ++i) {
      std::int32_t* crow = c + i * ldc + j0;
      int32x4_t acc0 = vld1q_s32(crow);
      int32x4_t acc1 = vld1q_s32(crow + 4);
      int32x4_t acc2 = vld1q_s32(crow + 8);
      int32x4_t acc3 = vld1q_s32(crow + 12);
      for (std::int64_t kk = 0; kk < k; ++kk) {
        const std::int32_t aki = a[kk * lda + i];
        if (aki == 0) continue;
        const int8x16_t bv = vld1q_s8(b + kk * ldb + j0);
        const int16x8_t blo = vmovl_s8(vget_low_s8(bv));
        const int16x8_t bhi = vmovl_s8(vget_high_s8(bv));
        const int32x4_t av = vdupq_n_s32(aki);
        acc0 = vmlaq_s32(acc0, av, vmovl_s16(vget_low_s16(blo)));
        acc1 = vmlaq_s32(acc1, av, vmovl_s16(vget_high_s16(blo)));
        acc2 = vmlaq_s32(acc2, av, vmovl_s16(vget_low_s16(bhi)));
        acc3 = vmlaq_s32(acc3, av, vmovl_s16(vget_high_s16(bhi)));
      }
      vst1q_s32(crow, acc0);
      vst1q_s32(crow + 4, acc1);
      vst1q_s32(crow + 8, acc2);
      vst1q_s32(crow + 12, acc3);
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

void adc_shift_add_i32_neon(float* acc, const std::int32_t* dot,
                            const float* baseline, std::int64_t n,
                            float dot_unit, float full_scale, float steps,
                            float shift) {
  const float32x4_t zero = vdupq_n_f32(0.0f);
  const float32x4_t vdu = vdupq_n_f32(dot_unit);
  const float32x4_t vfs = vdupq_n_f32(full_scale);
  const float32x4_t vsteps = vdupq_n_f32(steps);
  const float32x4_t vshift = vdupq_n_f32(shift);
  const std::int64_t n4 = n & ~std::int64_t{3};
  for (std::int64_t i = 0; i < n4; i += 4) {
    const float32x4_t vd = vcvtq_f32_s32(vld1q_s32(dot + i));
    const float32x4_t vb = vld1q_f32(baseline + i);
    // Unfused mul+add to match the scalar reference bit-for-bit.
    const float32x4_t cur = vaddq_f32(vb, vmulq_f32(vdu, vd));
    const float32x4_t clamped = vminq_f32(vmaxq_f32(cur, zero), vfs);
    const float32x4_t r =
        vrndaq_f32(vmulq_f32(vdivq_f32(clamped, vfs), vsteps));
    const float32x4_t q = vdivq_f32(vmulq_f32(r, vfs), vsteps);
    const float32x4_t d = vsubq_f32(q, vb);
    vst1q_f32(acc + i, vaddq_f32(vld1q_f32(acc + i), vmulq_f32(vshift, d)));
  }
  for (std::int64_t i = n4; i < n; ++i) {
    const float cur = baseline[i] + dot_unit * static_cast<float>(dot[i]);
    const float clamped = std::clamp(cur, 0.0f, full_scale);
    const float q = std::round(clamped / full_scale * steps) * full_scale /
                    steps;
    acc[i] += shift * (q - baseline[i]);
  }
}

}  // namespace nvm::simd::detail

#else  // !NVM_SIMD_NEON_TU or not AArch64 — stubs, unreachable via dispatch.

#include "common/check.h"

namespace nvm::simd::detail {

bool neon_tu_compiled() { return false; }

namespace {
[[noreturn]] void stub_fail() {
  throw nvm::CheckError(
      "nvm::simd NEON kernel called but NVM_ENABLE_NEON was off or the "
      "target is not AArch64");
}
}  // namespace

float dot_neon(const float*, const float*, std::int64_t) { stub_fail(); }
void axpy_neon(float*, const float*, float, std::int64_t) { stub_fail(); }
void madd_neon(float*, const float*, float, std::int64_t) { stub_fail(); }
void scale_neon(float*, const float*, float, std::int64_t) { stub_fail(); }
void tanh_block_neon(float*, std::int64_t) { stub_fail(); }
void gemm_neon(float*, const float*, const float*, std::int64_t, std::int64_t,
               std::int64_t, std::int64_t, std::int64_t, std::int64_t) {
  stub_fail();
}
void mlp_tanh_accum_neon(float*, const float*, const float*, const float*,
                         const float*, std::int64_t, std::int64_t,
                         std::int64_t, std::int64_t, std::int64_t,
                         std::int64_t) {
  stub_fail();
}
void gemm_at_neon(float*, const float*, const float*, std::int64_t,
                  std::int64_t, std::int64_t, std::int64_t, std::int64_t,
                  std::int64_t) {
  stub_fail();
}
void gemm_bt_neon(float*, const float*, const float*, std::int64_t,
                  std::int64_t, std::int64_t, std::int64_t, std::int64_t,
                  std::int64_t) {
  stub_fail();
}
void gemm_f64acc_neon(float*, const float*, const float*, std::int64_t,
                      std::int64_t, std::int64_t, std::int64_t, std::int64_t,
                      std::int64_t) {
  stub_fail();
}
void quantize_affine_neon(float*, const float*, std::int64_t, float, float) {
  stub_fail();
}
void adc_shift_add_neon(float*, const float*, const float*, std::int64_t,
                        float, float, float) {
  stub_fail();
}
void quantize_to_i8_neon(std::int8_t*, const float*, std::int64_t, float,
                         float) {
  stub_fail();
}
void quantize_to_i16_neon(std::int16_t*, const float*, std::int64_t, float,
                          float) {
  stub_fail();
}
void gemm_at_i8_i32acc_neon(std::int32_t*, const std::int8_t*,
                            const std::int8_t*, std::int64_t, std::int64_t,
                            std::int64_t, std::int64_t, std::int64_t,
                            std::int64_t) {
  stub_fail();
}
void adc_shift_add_i32_neon(float*, const std::int32_t*, const float*,
                            std::int64_t, float, float, float, float) {
  stub_fail();
}

}  // namespace nvm::simd::detail

#endif  // NVM_SIMD_NEON_TU && __aarch64__
