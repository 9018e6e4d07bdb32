// Internal: per-ISA kernel variants behind nvm::simd's public dispatch.
//
// The _scalar variants live in simd.cpp (baseline compile flags); the
// _avx2 / _avx512 / _neon variants live in simd_avx2.cpp /
// simd_avx512.cpp / simd_neon.cpp — the only TUs built with arch flags,
// and only when the matching NVM_ENABLE_* option is on (otherwise those
// TUs provide throwing stubs that the dispatcher never reaches). Do not
// call these directly outside simd.cpp: the public wrappers own metrics
// and ISA selection.
#pragma once

#include <cstdint>

namespace nvm::simd::detail {

/// True when the corresponding TU was built with real vector kernels.
bool avx2_tu_compiled();
bool avx512_tu_compiled();
bool neon_tu_compiled();

// One full kernel family per ISA suffix; the suffixed declarations are
// stamped out below for scalar, avx2, avx512, and neon.
#define NVM_SIMD_DECLARE_KERNELS(SUF)                                        \
  float dot_##SUF(const float* a, const float* b, std::int64_t n);           \
  void axpy_##SUF(float* y, const float* x, float alpha, std::int64_t n);    \
  void madd_##SUF(float* y, const float* x, float alpha, std::int64_t n);    \
  void scale_##SUF(float* y, const float* x, float alpha, std::int64_t n);   \
  void tanh_block_##SUF(float* x, std::int64_t n);                           \
  void gemm_##SUF(float* c, const float* a, const float* b, std::int64_t m,  \
                  std::int64_t n, std::int64_t k, std::int64_t lda,          \
                  std::int64_t ldb, std::int64_t ldc);                       \
  void gemm_at_##SUF(float* c, const float* a, const float* b,               \
                     std::int64_t m, std::int64_t n, std::int64_t k,         \
                     std::int64_t lda, std::int64_t ldb, std::int64_t ldc);  \
  void mlp_tanh_accum_##SUF(float* y, const float* h0, const float* a,      \
                            const float* x, const float* w2,                 \
                            std::int64_t hidden, std::int64_t n,             \
                            std::int64_t k, std::int64_t ldh,                \
                            std::int64_t lda, std::int64_t ldx);             \
  void gemm_bt_##SUF(float* c, const float* a, const float* b,               \
                     std::int64_t m, std::int64_t n, std::int64_t k,         \
                     std::int64_t lda, std::int64_t ldb, std::int64_t ldc);  \
  void gemm_f64acc_##SUF(float* out, const float* a, const float* v,         \
                         std::int64_t m, std::int64_t n, std::int64_t k,     \
                         std::int64_t lda, std::int64_t ldv,                 \
                         std::int64_t ldo);                                  \
  void quantize_affine_##SUF(float* out, const float* x, std::int64_t n,     \
                             float scale, float qmax);                       \
  void adc_shift_add_##SUF(float* acc, const float* cur,                     \
                           const float* baseline, std::int64_t n,            \
                           float full_scale, float steps, float shift);      \
  void quantize_to_i8_##SUF(std::int8_t* out, const float* x,                \
                            std::int64_t n, float scale, float qmax);        \
  void quantize_to_i16_##SUF(std::int16_t* out, const float* x,              \
                             std::int64_t n, float scale, float qmax);       \
  void gemm_at_i8_i32acc_##SUF(std::int32_t* c, const std::int8_t* a,        \
                               const std::int8_t* b, std::int64_t m,         \
                               std::int64_t n, std::int64_t k,               \
                               std::int64_t lda, std::int64_t ldb,           \
                               std::int64_t ldc);                            \
  void adc_shift_add_i32_##SUF(float* acc, const std::int32_t* dot,          \
                               const float* baseline, std::int64_t n,        \
                               float dot_unit, float full_scale,             \
                               float steps, float shift)

NVM_SIMD_DECLARE_KERNELS(scalar);
NVM_SIMD_DECLARE_KERNELS(avx2);
NVM_SIMD_DECLARE_KERNELS(avx512);
NVM_SIMD_DECLARE_KERNELS(neon);

#undef NVM_SIMD_DECLARE_KERNELS

}  // namespace nvm::simd::detail
