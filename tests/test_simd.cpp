// SIMD micro-kernel layer: scalar/AVX2 parity (bit-exact for [exact]
// kernels, bounded for [~ulp] kernels), batched-MVM bit-identity against
// looped single-vector MVMs for every crossbar model, cross-ISA and
// cross-thread-count determinism of the full tiled GEMM, and the solver
// stream's warm-start behaviour.
#include <gtest/gtest.h>

#include "common/check.h"

#include <bit>
#include <cmath>
#include <memory>
#include <vector>

#include "common/health.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/simd.h"
#include "common/thread_pool.h"
#include "puma/tiled_mvm.h"
#include "tensor/ops.h"
#include "xbar/circuit_solver.h"
#include "xbar/fast_noise.h"
#include "xbar/fault.h"
#include "xbar/geniex.h"
#include "xbar/variation.h"

namespace nvm {
namespace {

bool avx2_usable() { return simd::isa_usable(simd::Isa::Avx2); }

/// ISAs to exercise on this machine: scalar always, plus every vector
/// tier that is both compiled in and usable (AVX2/AVX-512 on x86 with OS
/// state enabled, NEON on AArch64). Parity tests below iterate this list,
/// so new tiers are covered automatically wherever the hardware allows.
std::vector<simd::Isa> test_isas() {
  std::vector<simd::Isa> isas{simd::Isa::Scalar};
  for (simd::Isa isa :
       {simd::Isa::Avx2, simd::Isa::Avx512, simd::Isa::Neon})
    if (simd::isa_usable(isa)) isas.push_back(isa);
  return isas;
}

/// The vector tiers from test_isas() (everything but scalar).
std::vector<simd::Isa> vector_isas() {
  std::vector<simd::Isa> isas = test_isas();
  isas.erase(isas.begin());
  return isas;
}

std::vector<float> random_vec(std::int64_t n, Rng& rng, double lo = -1.0,
                              double hi = 1.0) {
  std::vector<float> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = static_cast<float>(rng.uniform(lo, hi));
  return v;
}

// ---------------------------------------------------------------------------
// ISA plumbing
// ---------------------------------------------------------------------------

TEST(SimdIsa, ScopedOverrideForcesAndRestores) {
  const simd::Isa before = simd::active_isa();
  {
    simd::ScopedIsaForTests scalar(simd::Isa::Scalar);
    EXPECT_EQ(simd::active_isa(), simd::Isa::Scalar);
    if (avx2_usable()) {
      simd::ScopedIsaForTests avx(simd::Isa::Avx2);
      EXPECT_EQ(simd::active_isa(), simd::Isa::Avx2);
    }
    EXPECT_EQ(simd::active_isa(), simd::Isa::Scalar);
  }
  EXPECT_EQ(simd::active_isa(), before);
}

TEST(SimdIsa, ForcingAvx2WithoutSupportThrows) {
  if (avx2_usable()) GTEST_SKIP() << "AVX2 available; force succeeds here";
  EXPECT_THROW(simd::ScopedIsaForTests avx(simd::Isa::Avx2), CheckError);
}

TEST(SimdIsa, NamesAreStable) {
  EXPECT_STREQ(simd::isa_name(simd::Isa::Scalar), "scalar");
  EXPECT_STREQ(simd::isa_name(simd::Isa::Avx2), "avx2");
  EXPECT_STREQ(simd::isa_name(simd::Isa::Avx512), "avx512");
  EXPECT_STREQ(simd::isa_name(simd::Isa::Neon), "neon");
}

TEST(SimdIsa, UsableImpliesCompiledAndSupported) {
  EXPECT_TRUE(simd::isa_usable(simd::Isa::Scalar));
  EXPECT_EQ(simd::isa_usable(simd::Isa::Avx2),
            simd::avx2_compiled() && simd::avx2_supported());
  EXPECT_EQ(simd::isa_usable(simd::Isa::Avx512),
            simd::avx512_compiled() && simd::avx512_supported());
  EXPECT_EQ(simd::isa_usable(simd::Isa::Neon),
            simd::neon_compiled() && simd::neon_supported());
  // AVX-512 dispatch requires the AVX2-era OS state too, so a machine that
  // can run the avx512 tier can always also run avx2.
  if (simd::avx512_supported()) {
    EXPECT_TRUE(simd::avx2_supported());
  }
}

TEST(SimdIsa, ForcingUnusableTierThrows) {
  for (simd::Isa isa :
       {simd::Isa::Avx2, simd::Isa::Avx512, simd::Isa::Neon}) {
    if (simd::isa_usable(isa)) continue;
    EXPECT_THROW(simd::ScopedIsaForTests scope(isa), CheckError)
        << simd::isa_name(isa);
  }
}

// ---------------------------------------------------------------------------
// Kernel correctness against naive references
// ---------------------------------------------------------------------------

TEST(SimdKernels, DotMatchesNaiveWithinBound) {
  Rng rng(11);
  for (simd::Isa isa : test_isas()) {
    simd::ScopedIsaForTests scope(isa);
    for (std::int64_t n : {0, 1, 7, 8, 9, 64, 131}) {
      std::vector<float> a = random_vec(n, rng), b = random_vec(n, rng);
      double ref = 0.0, abs_sum = 0.0;
      for (std::int64_t i = 0; i < n; ++i) {
        ref += static_cast<double>(a[i]) * b[i];
        abs_sum += std::abs(static_cast<double>(a[i]) * b[i]);
      }
      const double bound =
          4.0 * static_cast<double>(n + 1) *
              std::numeric_limits<float>::epsilon() * abs_sum +
          1e-12;
      EXPECT_NEAR(simd::dot(a.data(), b.data(), n), ref, bound)
          << "isa=" << simd::isa_name(isa) << " n=" << n;
    }
  }
}

TEST(SimdKernels, DotIsDeterministicPerIsa) {
  Rng rng(12);
  std::vector<float> a = random_vec(1001, rng), b = random_vec(1001, rng);
  for (simd::Isa isa : test_isas()) {
    simd::ScopedIsaForTests scope(isa);
    const float first = simd::dot(a.data(), b.data(), 1001);
    for (int rep = 0; rep < 5; ++rep)
      EXPECT_EQ(simd::dot(a.data(), b.data(), 1001), first);
  }
}

TEST(SimdKernels, GemmMatchesNaiveReference) {
  Rng rng(13);
  const std::int64_t m = 5, n = 11, k = 17;
  std::vector<float> a = random_vec(m * k, rng), b = random_vec(k * n, rng);
  for (simd::Isa isa : test_isas()) {
    simd::ScopedIsaForTests scope(isa);
    std::vector<float> c(static_cast<std::size_t>(m * n), 0.5f);
    simd::gemm_accum(c.data(), a.data(), b.data(), m, n, k, k, n, n);
    for (std::int64_t i = 0; i < m; ++i)
      for (std::int64_t j = 0; j < n; ++j) {
        double ref = 0.5;
        for (std::int64_t kk = 0; kk < k; ++kk)
          ref += static_cast<double>(a[i * k + kk]) * b[kk * n + j];
        EXPECT_NEAR(c[i * n + j], ref, 1e-5)
            << "isa=" << simd::isa_name(isa) << " (" << i << "," << j << ")";
      }
  }
}

TEST(SimdKernels, TransposedGemmVariantsMatchExplicitTranspose) {
  Rng rng(14);
  Tensor a = Tensor::normal({9, 6}, 0.0f, 1.0f, rng);   // K x M
  Tensor b = Tensor::normal({9, 7}, 0.0f, 1.0f, rng);   // K x N
  Tensor at_ref = matmul(transpose2d(a), b);
  Tensor at = matmul_at(a, b);
  ASSERT_EQ(at.dim(0), 6);
  ASSERT_EQ(at.dim(1), 7);
  for (std::int64_t i = 0; i < at.numel(); ++i)
    EXPECT_NEAR(at[i], at_ref[i], 1e-5) << i;

  Tensor c = Tensor::normal({5, 9}, 0.0f, 1.0f, rng);   // M x K
  Tensor d = Tensor::normal({8, 9}, 0.0f, 1.0f, rng);   // N x K
  Tensor bt_ref = matmul(c, transpose2d(d));
  Tensor bt = matmul_bt(c, d);
  ASSERT_EQ(bt.dim(0), 5);
  ASSERT_EQ(bt.dim(1), 8);
  for (std::int64_t i = 0; i < bt.numel(); ++i)
    EXPECT_NEAR(bt[i], bt_ref[i], 1e-5) << i;
}

TEST(SimdKernels, QuantizeAffineMatchesScalarFormula) {
  Rng rng(15);
  const std::int64_t n = 37;
  std::vector<float> x = random_vec(n, rng, -0.5, 1.5);
  const float scale = 0.9f, qmax = 63.0f;
  for (simd::Isa isa : test_isas()) {
    simd::ScopedIsaForTests scope(isa);
    std::vector<float> out(static_cast<std::size_t>(n));
    simd::quantize_affine(out.data(), x.data(), n, scale, qmax);
    for (std::int64_t i = 0; i < n; ++i) {
      const float clipped = std::clamp(x[i], 0.0f, scale);
      EXPECT_EQ(out[i], std::round(clipped / scale * qmax))
          << "isa=" << simd::isa_name(isa) << " x=" << x[i];
    }
  }
}

TEST(SimdKernels, QuantizeAffineRoundsTiesAwayFromZero) {
  // scale = qmax = 8 makes t = x/8*8 == x exactly (power-of-two scaling),
  // so half-integer inputs hit the rounding tie exactly. std::round ties
  // away from zero; the AVX2 floor+frac>=0.5 emulation must agree.
  std::vector<float> x{0.5f, 1.5f, 2.5f, 3.5f, 4.5f, 5.5f, 6.5f, 7.5f, 8.0f};
  for (simd::Isa isa : test_isas()) {
    simd::ScopedIsaForTests scope(isa);
    std::vector<float> out(x.size());
    simd::quantize_affine(out.data(), x.data(),
                          static_cast<std::int64_t>(x.size()), 8.0f, 8.0f);
    for (std::size_t i = 0; i < x.size(); ++i)
      EXPECT_EQ(out[i], std::round(x[i])) << "x=" << x[i];
  }
}

TEST(SimdKernels, AdcShiftAddMatchesUnfusedFormula) {
  Rng rng(16);
  const std::int64_t n = 29;
  std::vector<float> cur = random_vec(n, rng, -0.2, 1.4);
  std::vector<float> base = random_vec(n, rng, 0.0, 0.3);
  const float fs = 1.1f, steps = 255.0f, shift = -3.5f;
  for (simd::Isa isa : test_isas()) {
    simd::ScopedIsaForTests scope(isa);
    std::vector<float> acc(static_cast<std::size_t>(n), 0.25f);
    simd::adc_shift_add(acc.data(), cur.data(), base.data(), n, fs, steps,
                        shift);
    for (std::int64_t i = 0; i < n; ++i) {
      const float clamped = std::clamp(cur[i], 0.0f, fs);
      const float q = std::round(clamped / fs * steps) * fs / steps;
      const float want = 0.25f + shift * (q - base[i]);
      EXPECT_EQ(acc[i], want) << "isa=" << simd::isa_name(isa) << " i=" << i;
    }
  }
}

TEST(SimdKernels, TanhBlockMatchesTanhFastExactly) {
  std::vector<float> x;
  for (float t = -6.0f; t <= 6.0f; t += 0.037f) x.push_back(t);
  for (simd::Isa isa : test_isas()) {
    simd::ScopedIsaForTests scope(isa);
    std::vector<float> y = x;
    simd::tanh_block(y.data(), static_cast<std::int64_t>(y.size()));
    for (std::size_t i = 0; i < x.size(); ++i) {
      EXPECT_EQ(y[i], simd::tanh_fast(x[i]))
          << "isa=" << simd::isa_name(isa) << " x=" << x[i];
      EXPECT_NEAR(y[i], std::tanh(x[i]), 3e-3f);
    }
  }
}

/// Operands of one mlp_tanh_accum call, with padded leading dimensions
/// and a few zero weights (the scalar tier skips zero coefficients).
/// Magnitudes keep every pre-activation inside (-4.97, 4.97), away from
/// tanh_fast's saturation cut.
struct MlpCase {
  std::int64_t hidden, n, k, ldh, lda, ldx;
  std::vector<float> h0, a, x, w2, y0;

  MlpCase(std::int64_t hidden_, std::int64_t n_, std::int64_t k_, Rng& rng)
      : hidden(hidden_), n(n_), k(k_), ldh(n_ + 3), lda(k_ + 1),
        ldx(n_ + 2) {
    h0 = random_vec(hidden * ldh, rng);
    a = random_vec(hidden * lda, rng, -0.5, 0.5);
    x = random_vec(k * ldx, rng);
    w2 = random_vec(hidden, rng);
    y0 = random_vec(n, rng);
    a[0] = 0.0f;
    w2[static_cast<std::size_t>(hidden - 1)] = 0.0f;
  }

  std::vector<float> fused() const {
    std::vector<float> y = y0;
    simd::mlp_tanh_accum(y.data(), h0.data(), a.data(), x.data(), w2.data(),
                         hidden, n, k, ldh, lda, ldx);
    return y;
  }

  /// The composition the fused kernel replaces: first-layer gemm, tanh
  /// over the stored hidden block, output gemm with m = 1.
  std::vector<float> composed() const {
    std::vector<float> hid(static_cast<std::size_t>(hidden * n));
    for (std::int64_t h = 0; h < hidden; ++h)
      std::copy(h0.begin() + h * ldh, h0.begin() + h * ldh + n,
                hid.begin() + h * n);
    simd::gemm_accum(hid.data(), a.data(), x.data(), hidden, n, k, lda, ldx,
                     n);
    simd::tanh_block(hid.data(), hidden * n);
    std::vector<float> y = y0;
    simd::gemm_accum(y.data(), w2.data(), hid.data(), 1, n, hidden, hidden,
                     n, n);
    return y;
  }
};

TEST(SimdKernels, MlpTanhAccumMatchesComposedKernelsExactly) {
  Rng rng(24);
  for (std::int64_t hidden : {1, 5, 28})
    for (std::int64_t k : {1, 5})
      for (std::int64_t n : {1, 15, 16, 17, 48, 144}) {
        const MlpCase c(hidden, n, k, rng);
        for (simd::Isa isa : test_isas()) {
          simd::ScopedIsaForTests scope(isa);
          EXPECT_EQ(c.fused(), c.composed())
              << simd::isa_name(isa) << " hidden=" << hidden << " k=" << k
              << " n=" << n;
        }
      }
}

/// First column of each gemm row that a vector tier runs in its tail (past
/// the last full vector): 4-row microtiles (rows below m & ~3) vectorize
/// W_tile lanes at a time, single rows W_row. NEON's microtiles are 4x8
/// but its single rows 4 wide.
std::int64_t gemm_tail_start(simd::Isa isa, std::int64_t row, std::int64_t m,
                             std::int64_t n) {
  const bool in_tile = row < (m & ~std::int64_t{3});
  std::int64_t w = 8;
  if (isa == simd::Isa::Avx512) w = 16;
  if (isa == simd::Isa::Neon && !in_tile) w = 4;
  return n & ~(w - 1);
}

std::uint32_t float_bits(float x) { return std::bit_cast<std::uint32_t>(x); }

/// The gemm tails keep the scalar reference's op per lane (an unfused mul
/// then add, DESIGN.md §11) however they are vectorized, so every tail lane
/// equals the scalar tier bit for bit — zero coefficients (which the
/// scalar tier skips) included. Padding past n in C must stay untouched.
TEST(SimdKernels, GemmTailLanesMatchScalarTierExactly) {
  Rng rng(25);
  const std::int64_t k = 37;
  std::vector<std::int64_t> ns;
  for (std::int64_t n = 1; n <= 17; ++n) ns.push_back(n);
  for (std::int64_t n : {36, 47}) ns.push_back(n);
  std::int64_t tail_lanes = 0;
  for (bool at : {false, true})
    for (std::int64_t m : {1, 3, 4, 5, 32})
      for (std::int64_t n : ns) {
        const std::int64_t lda = (at ? m : k) + 1, ldb = n + 2, ldc = n + 3;
        std::vector<float> a = random_vec((at ? k : m) * lda, rng);
        for (float& v : a)
          if (rng.bernoulli(0.2)) v = 0.0f;
        const std::vector<float> b = random_vec(k * ldb, rng);
        const std::vector<float> c0 = random_vec(m * ldc, rng, 0.5, 1.5);
        auto run = [&](simd::Isa isa) {
          simd::ScopedIsaForTests scope(isa);
          std::vector<float> c = c0;
          (at ? simd::gemm_at_accum : simd::gemm_accum)(
              c.data(), a.data(), b.data(), m, n, k, lda, ldb, ldc);
          return c;
        };
        const std::vector<float> ref = run(simd::Isa::Scalar);
        for (simd::Isa isa : vector_isas()) {
          const std::vector<float> c = run(isa);
          for (std::int64_t i = 0; i < m; ++i) {
            for (std::int64_t j = gemm_tail_start(isa, i, m, n); j < n; ++j) {
              ++tail_lanes;
              EXPECT_EQ(float_bits(c[i * ldc + j]),
                        float_bits(ref[i * ldc + j]))
                  << simd::isa_name(isa) << (at ? " gemm_at" : " gemm")
                  << " m=" << m << " n=" << n << " (" << i << "," << j << ")";
            }
            for (std::int64_t j = n; j < ldc; ++j)
              EXPECT_EQ(float_bits(c[i * ldc + j]), float_bits(c0[i * ldc + j]))
                  << simd::isa_name(isa) << " wrote padding at (" << i << ","
                  << j << ")";
          }
        }
      }
  if (!vector_isas().empty()) {
    EXPECT_GT(tail_lanes, 0);
  }
}

// ---------------------------------------------------------------------------
// Scalar vs vector-tier parity (avx2 / avx512 / neon, whichever run here)
// ---------------------------------------------------------------------------

/// [exact]-contract kernels must produce bit-identical outputs on every
/// usable ISA tier (DESIGN.md §11, §13); this is what makes the full
/// analog stack NVM_SIMD-invariant.
TEST(SimdParity, ExactKernelsBitIdenticalAcrossIsas) {
  if (vector_isas().empty()) GTEST_SKIP() << "no vector tier available";
  Rng rng(21);
  const std::int64_t n = 101;  // odd: exercises vector body + scalar tail
  std::vector<float> x = random_vec(n, rng, -3.0, 3.0);
  std::vector<float> y0 = random_vec(n, rng);

  auto run = [&](simd::Isa isa) {
    simd::ScopedIsaForTests scope(isa);
    struct Out {
      std::vector<float> madd, scl, tanh, quant, adc;
    } o;
    o.madd = y0;
    simd::madd(o.madd.data(), x.data(), 1.7f, n);
    o.scl.assign(static_cast<std::size_t>(n), 0.0f);
    simd::scale(o.scl.data(), x.data(), -0.313f, n);
    o.tanh = x;
    simd::tanh_block(o.tanh.data(), n);
    o.quant.assign(static_cast<std::size_t>(n), 0.0f);
    simd::quantize_affine(o.quant.data(), x.data(), n, 2.3f, 127.0f);
    o.adc = y0;
    simd::adc_shift_add(o.adc.data(), x.data(), y0.data(), n, 1.7f, 1023.0f,
                        2.25f);
    return o;
  };
  auto s = run(simd::Isa::Scalar);
  for (simd::Isa isa : vector_isas()) {
    auto v = run(isa);
    for (std::int64_t i = 0; i < n; ++i) {
      EXPECT_EQ(s.madd[i], v.madd[i])
          << simd::isa_name(isa) << " madd " << i;
      EXPECT_EQ(s.scl[i], v.scl[i]) << simd::isa_name(isa) << " scale " << i;
      EXPECT_EQ(s.tanh[i], v.tanh[i]) << simd::isa_name(isa) << " tanh " << i;
      EXPECT_EQ(s.quant[i], v.quant[i])
          << simd::isa_name(isa) << " quantize " << i;
      EXPECT_EQ(s.adc[i], v.adc[i]) << simd::isa_name(isa) << " adc " << i;
    }
  }
}

TEST(SimdParity, GemmF64AccBitIdenticalAcrossIsas) {
  if (vector_isas().empty()) GTEST_SKIP() << "no vector tier available";
  Rng rng(22);
  const std::int64_t m = 13, n = 19, k = 31;
  std::vector<float> a = random_vec(m * k, rng), v = random_vec(k * n, rng);
  auto run = [&](simd::Isa isa) {
    simd::ScopedIsaForTests scope(isa);
    std::vector<float> out(static_cast<std::size_t>(m * n));
    simd::gemm_f64acc(out.data(), a.data(), v.data(), m, n, k, k, n, n);
    return out;
  };
  auto s = run(simd::Isa::Scalar);
  for (simd::Isa isa : vector_isas()) {
    auto x = run(isa);
    for (std::int64_t i = 0; i < m * n; ++i)
      EXPECT_EQ(s[i], x[i]) << simd::isa_name(isa) << " " << i;
  }
}

/// [~ulp]-contract kernels (FMA in the vector tiers, plain mul+add
/// scalar) may differ, but only within the documented accumulation bound:
/// a few eps of the sum of absolute products.
TEST(SimdParity, UlpKernelsWithinDocumentedBound) {
  if (vector_isas().empty()) GTEST_SKIP() << "no vector tier available";
  Rng rng(23);
  const std::int64_t n = 517;
  std::vector<float> a = random_vec(n, rng), b = random_vec(n, rng);
  double abs_sum = 0.0;
  for (std::int64_t i = 0; i < n; ++i)
    abs_sum += std::abs(static_cast<double>(a[i]) * b[i]);
  const double bound = 8.0 * static_cast<double>(n) *
                       std::numeric_limits<float>::epsilon() * abs_sum;

  float dot_s;
  std::vector<float> axpy_s = b;
  {
    simd::ScopedIsaForTests scope(simd::Isa::Scalar);
    dot_s = simd::dot(a.data(), b.data(), n);
    simd::axpy(axpy_s.data(), a.data(), 0.77f, n);
  }
  for (simd::Isa isa : vector_isas()) {
    float dot_v;
    std::vector<float> axpy_v = b;
    {
      simd::ScopedIsaForTests scope(isa);
      dot_v = simd::dot(a.data(), b.data(), n);
      simd::axpy(axpy_v.data(), a.data(), 0.77f, n);
    }
    EXPECT_NEAR(dot_s, dot_v, bound) << simd::isa_name(isa);
    for (std::int64_t i = 0; i < n; ++i)
      EXPECT_NEAR(axpy_s[i], axpy_v[i],
                  2.0 * std::numeric_limits<float>::epsilon() *
                      (std::abs(axpy_s[i]) + std::abs(0.77f * a[i])))
          << simd::isa_name(isa) << " " << i;
  }
}

/// mlp_tanh_accum inherits gemm's [~ulp] class across tiers: each layer's
/// accumulation may differ by a few eps of its sum of absolute terms, and
/// tanh_fast passes a pre-activation difference through with slope <= 1.
TEST(SimdParity, MlpTanhAccumWithinGemmBoundAcrossIsas) {
  if (vector_isas().empty()) GTEST_SKIP() << "no vector tier available";
  Rng rng(25);
  for (std::int64_t hidden : {1, 5, 28})
    for (std::int64_t k : {1, 5})
      for (std::int64_t n : {1, 15, 16, 17, 48, 144}) {
        const MlpCase c(hidden, n, k, rng);
        std::vector<float> ys;
        {
          simd::ScopedIsaForTests scope(simd::Isa::Scalar);
          ys = c.fused();
        }
        const double eps = std::numeric_limits<float>::epsilon();
        for (simd::Isa isa : vector_isas()) {
          std::vector<float> yv;
          {
            simd::ScopedIsaForTests scope(isa);
            yv = c.fused();
          }
          for (std::int64_t j = 0; j < n; ++j) {
            double out_terms = std::abs(c.y0[static_cast<std::size_t>(j)]);
            for (std::int64_t h = 0; h < hidden; ++h) {
              double pre_terms =
                  std::abs(c.h0[static_cast<std::size_t>(h * c.ldh + j)]);
              for (std::int64_t f = 0; f < k; ++f)
                pre_terms +=
                    std::abs(c.a[static_cast<std::size_t>(h * c.lda + f)] *
                             c.x[static_cast<std::size_t>(f * c.ldx + j)]);
              out_terms += std::abs(c.w2[static_cast<std::size_t>(h)]) *
                           (1.0 + pre_terms);
            }
            const double bound =
                4.0 * static_cast<double>(k + hidden + 2) * eps * out_terms;
            EXPECT_NEAR(ys[static_cast<std::size_t>(j)],
                        yv[static_cast<std::size_t>(j)], bound)
                << simd::isa_name(isa) << " hidden=" << hidden << " k=" << k
                << " n=" << n << " j=" << j;
          }
        }
      }
}

// ---------------------------------------------------------------------------
// Integer bit-slice kernels (DESIGN.md §13)
// ---------------------------------------------------------------------------

/// quantize_to_i8/i16 must produce exactly the codes quantize_affine
/// produces (as floats), on every tier.
TEST(SimdIntKernels, QuantizeIntTwinsMatchQuantizeAffineBitExact) {
  Rng rng(61);
  const std::int64_t n = 103;  // odd: vector body + tail
  std::vector<float> x = random_vec(n, rng, -0.4, 1.9);
  x[0] = 0.0f;
  x[1] = 1.5f;  // ref scale 1.5/qmax hits exact ties for power-of-2 qmax
  for (simd::Isa isa : test_isas()) {
    simd::ScopedIsaForTests scope(isa);
    for (const float qmax : {127.0f, 63.0f, 32767.0f, 8.0f}) {
      const float scale = 1.5f;
      std::vector<float> ref(static_cast<std::size_t>(n));
      simd::quantize_affine(ref.data(), x.data(), n, scale, qmax);
      if (qmax <= 127.0f) {
        std::vector<std::int8_t> q8(static_cast<std::size_t>(n));
        simd::quantize_to_i8(q8.data(), x.data(), n, scale, qmax);
        for (std::int64_t i = 0; i < n; ++i)
          EXPECT_EQ(static_cast<float>(q8[i]), ref[i])
              << simd::isa_name(isa) << " qmax=" << qmax << " i=" << i;
      }
      std::vector<std::int16_t> q16(static_cast<std::size_t>(n));
      simd::quantize_to_i16(q16.data(), x.data(), n, scale, qmax);
      for (std::int64_t i = 0; i < n; ++i)
        EXPECT_EQ(static_cast<float>(q16[i]), ref[i])
            << simd::isa_name(isa) << " qmax=" << qmax << " i=" << i;
    }
  }
}

/// The i32 GEMM must agree bit-for-bit with float accumulation of the
/// same integer-valued operands: products are < 2^14 and dot totals stay
/// below 2^24, where float arithmetic is exact, so BOTH paths compute the
/// mathematically exact integer. This is the kernel-level "int8 == f32"
/// contract the bit-slice pipeline rests on.
TEST(SimdIntKernels, GemmI8I32accMatchesFloatGemmExactly) {
  Rng rng(62);
  const std::int64_t m = 17, n = 23, k = 61;
  std::vector<std::int8_t> a(static_cast<std::size_t>(k * m));
  std::vector<std::int8_t> b(static_cast<std::size_t>(k * n));
  for (auto& v : a) v = static_cast<std::int8_t>(rng.uniform(0.0, 127.99));
  for (auto& v : b) v = static_cast<std::int8_t>(rng.uniform(0.0, 127.99));
  std::vector<float> af(a.begin(), a.end()), bf(b.begin(), b.end());
  std::vector<float> cf(static_cast<std::size_t>(m * n), 0.0f);
  simd::gemm_at_accum(cf.data(), af.data(), bf.data(), m, n, k, m, n, n);

  std::vector<std::int32_t> ref;
  for (simd::Isa isa : test_isas()) {
    simd::ScopedIsaForTests scope(isa);
    std::vector<std::int32_t> c(static_cast<std::size_t>(m * n), 0);
    simd::gemm_at_i8_i32acc(c.data(), a.data(), b.data(), m, n, k, m, n, n);
    for (std::int64_t i = 0; i < m * n; ++i)
      EXPECT_EQ(static_cast<float>(c[i]), cf[i])
          << simd::isa_name(isa) << " " << i;
    if (ref.empty())
      ref = c;
    else
      EXPECT_EQ(c, ref) << simd::isa_name(isa);
  }
}

TEST(SimdIntKernels, AdcShiftAddI32MatchesComposedFloatOps) {
  Rng rng(63);
  const std::int64_t n = 41;
  std::vector<std::int32_t> dot(static_cast<std::size_t>(n));
  for (auto& d : dot)
    d = static_cast<std::int32_t>(rng.uniform(0.0, 16383.99));
  std::vector<float> base = random_vec(n, rng, 0.0, 0.3);
  const float dot_unit = 3.1e-5f, fs = 1.1f, steps = 1023.0f, shift = 2.5f;
  for (simd::Isa isa : test_isas()) {
    simd::ScopedIsaForTests scope(isa);
    std::vector<float> acc(static_cast<std::size_t>(n), 0.125f);
    simd::adc_shift_add_i32(acc.data(), dot.data(), base.data(), n, dot_unit,
                            fs, steps, shift);
    for (std::int64_t i = 0; i < n; ++i) {
      // Composed float reference: unfused mul+add, then the same fused
      // ADC + baseline-subtract + shift-add as adc_shift_add.
      const float cur = base[i] + dot_unit * static_cast<float>(dot[i]);
      float want = 0.125f;
      simd::adc_shift_add(&want, &cur, &base[i], 1, fs, steps, shift);
      EXPECT_EQ(acc[i], want) << simd::isa_name(isa) << " i=" << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Workspace
// ---------------------------------------------------------------------------

TEST(SimdWorkspace, ReacquisitionReusesBufferAndCounts) {
  simd::Workspace ws;
  metrics::Counter& reuses = metrics::counter("simd/workspace/reuses");
  std::span<float> first = ws.floats(0, 256);
  ASSERT_EQ(first.size(), 256u);
  first[0] = 42.0f;
  const std::uint64_t before = reuses.value();
  std::span<float> again = ws.floats(0, 128);  // smaller: must not realloc
  EXPECT_EQ(again.data(), first.data());
  EXPECT_EQ(again.size(), 128u);
  EXPECT_GT(reuses.value(), before);
  // A different slot gets independent storage.
  std::span<float> other = ws.floats(1, 64);
  EXPECT_NE(other.data(), first.data());
  // Doubles and floats of the same slot are independent buffers too.
  std::span<double> d = ws.doubles(0, 32);
  EXPECT_NE(static_cast<const void*>(d.data()),
            static_cast<const void*>(first.data()));
}

// ---------------------------------------------------------------------------
// mvm_multi == looped mvm, bit for bit, for every model
// ---------------------------------------------------------------------------

xbar::CrossbarConfig tiny_config(std::int64_t n) {
  xbar::CrossbarConfig cfg = xbar::xbar_32x32_100k();
  cfg.rows = cfg.cols = n;
  cfg.name = "simd_test";
  return cfg;
}

Tensor random_conductances(const xbar::CrossbarConfig& cfg, Rng& rng) {
  Tensor g({cfg.rows, cfg.cols});
  const double lo = cfg.g_off(), hi = cfg.g_on();
  for (std::int64_t i = 0; i < g.numel(); ++i)
    g[i] = static_cast<float>(rng.uniform(lo, hi));
  return g;
}

Tensor random_voltage_block(const xbar::CrossbarConfig& cfg, std::int64_t n,
                            Rng& rng) {
  Tensor v({cfg.rows, n});
  for (std::int64_t i = 0; i < v.numel(); ++i) {
    // Include exact zeros so skip-zero paths are exercised.
    const double u = rng.uniform(-0.3, 1.0);
    v[i] = static_cast<float>(cfg.v_read * std::max(u, 0.0));
  }
  return v;
}

void expect_multi_matches_looped(const xbar::MvmModel& model,
                                 std::int64_t block, Rng& rng) {
  const xbar::CrossbarConfig& cfg = model.config();
  Tensor g = random_conductances(cfg, rng);
  std::unique_ptr<xbar::ProgrammedXbar> xb = model.program(g);
  Tensor vb = random_voltage_block(cfg, block, rng);
  for (simd::Isa isa : test_isas()) {
    simd::ScopedIsaForTests scope(isa);
    Tensor multi = xb->mvm_multi(vb);
    ASSERT_EQ(multi.dim(0), cfg.cols);
    ASSERT_EQ(multi.dim(1), block);
    for (std::int64_t j = 0; j < block; ++j) {
      Tensor v({cfg.rows});
      for (std::int64_t i = 0; i < cfg.rows; ++i) v[i] = vb.at(i, j);
      Tensor single = xb->mvm(v);
      for (std::int64_t c = 0; c < cfg.cols; ++c)
        EXPECT_EQ(multi.at(c, j), single[c])
            << model.name() << " isa=" << simd::isa_name(isa) << " col=" << c
            << " rhs=" << j;
    }
  }
}

TEST(MvmMulti, IdealBitIdenticalToLoopedMvm) {
  Rng rng(31);
  xbar::IdealXbarModel model(tiny_config(16));
  expect_multi_matches_looped(model, 5, rng);
}

TEST(MvmMulti, FastNoiseBitIdenticalToLoopedMvm) {
  Rng rng(32);
  xbar::FastNoiseModel model(tiny_config(16));
  expect_multi_matches_looped(model, 5, rng);
}

TEST(MvmMulti, CircuitSolverBitIdenticalToLoopedMvm) {
  Rng rng(33);
  xbar::CircuitSolverModel model(tiny_config(8));
  expect_multi_matches_looped(model, 3, rng);
}

TEST(MvmMulti, FaultWrappedBitIdenticalToLoopedMvm) {
  Rng rng(34);
  xbar::FaultOptions fo;
  fo.stuck_on_rate = 0.05;
  fo.stuck_off_rate = 0.05;
  fo.dead_col_rate = 0.05;
  xbar::FaultModel model(
      std::make_shared<xbar::FastNoiseModel>(tiny_config(16)), fo);
  expect_multi_matches_looped(model, 4, rng);
}

TEST(MvmMulti, VariationWrappedBitIdenticalToLoopedMvm) {
  Rng rng(35);
  xbar::VariationModel model(
      std::make_shared<xbar::IdealXbarModel>(tiny_config(16)), {});
  expect_multi_matches_looped(model, 4, rng);
}

TEST(MvmMulti, GeniexBitIdenticalToLoopedMvm) {
  Rng rng(36);
  const xbar::CrossbarConfig cfg = tiny_config(16);
  xbar::GeniexTrainOptions opt;
  opt.solver_samples = 60;  // small fit; bit-identity doesn't need accuracy
  xbar::GeniexFit fit = xbar::GeniexModel::fit(cfg, opt);
  xbar::GeniexModel model(cfg, std::move(fit.mlp));
  expect_multi_matches_looped(model, 5, rng);
}

TEST(MvmMulti, ActiveHintMatchesFullOnZeroPaddedInput) {
  Rng rng(37);
  const xbar::CrossbarConfig cfg = tiny_config(16);
  const std::int64_t rows_used = 11, cols_used = 9, block = 4;
  xbar::IdealXbarModel model(cfg);
  Tensor g = random_conductances(cfg, rng);
  std::unique_ptr<xbar::ProgrammedXbar> xb = model.program(g);
  Tensor vb = random_voltage_block(cfg, block, rng);
  for (std::int64_t i = rows_used; i < cfg.rows; ++i)
    for (std::int64_t j = 0; j < block; ++j) vb.at(i, j) = 0.0f;
  Tensor full = xb->mvm_multi(vb);
  Tensor active = xb->mvm_multi_active(vb, rows_used, cols_used);
  for (std::int64_t c = 0; c < cols_used; ++c)
    for (std::int64_t j = 0; j < block; ++j)
      EXPECT_EQ(active.at(c, j), full.at(c, j)) << c << "," << j;
}

// ---------------------------------------------------------------------------
// Full tiled GEMM: deterministic across runs, thread counts, and ISAs
// ---------------------------------------------------------------------------

Tensor tiled_reference_run(const std::shared_ptr<const xbar::MvmModel>& model,
                           const Tensor& w, const Tensor& x) {
  puma::TiledMatrix tiled(w, model, puma::HwConfig{});
  return tiled.matmul(x, 0.0f);
}

TEST(TiledMatmul, DeterministicAcrossThreadCountsAndIsas) {
  Rng rng(41);
  const auto cfg = tiny_config(16);
  // Non-divisible dimensions: 2x2 row/col tiles with ragged edges.
  Tensor w = Tensor::normal({20, 18}, 0.0f, 0.4f, rng);
  Tensor x({18, 5});
  for (std::int64_t i = 0; i < x.numel(); ++i)
    x[i] = static_cast<float>(rng.uniform(0.0, 1.0));

  for (const bool fast_noise : {false, true}) {
    std::shared_ptr<const xbar::MvmModel> model;
    if (fast_noise)
      model = std::make_shared<xbar::FastNoiseModel>(cfg);
    else
      model = std::make_shared<xbar::IdealXbarModel>(cfg);

    Tensor ref;
    {
      // The whole analog pipeline uses only [exact]-contract kernels, so
      // outputs must be bit-identical across ISAs, pool sizes, and runs.
      simd::ScopedIsaForTests scope(simd::Isa::Scalar);
      ThreadPool serial(1);
      ThreadPool::ScopedUse use(serial);
      ref = tiled_reference_run(model, w, x);
    }
    ASSERT_GT(ref.abs_max(), 0.0f);
    for (simd::Isa isa : test_isas()) {
      simd::ScopedIsaForTests scope(isa);
      for (std::size_t threads : {1u, 2u, 5u}) {
        ThreadPool pool(threads);
        ThreadPool::ScopedUse use(pool);
        Tensor out = tiled_reference_run(model, w, x);
        ASSERT_EQ(out.numel(), ref.numel());
        for (std::int64_t i = 0; i < out.numel(); ++i)
          EXPECT_EQ(out[i], ref[i])
              << (fast_noise ? "fast_noise" : "ideal")
              << " isa=" << simd::isa_name(isa) << " threads=" << threads
              << " i=" << i;
      }
    }
  }
}

/// Both int routes must be deterministic across ISA tiers and thread
/// counts.
TEST(IntPath, IntRoutesDeterministicAcrossIsasAndThreads) {
  Rng rng(73);
  const auto cfg = tiny_config(16);
  Tensor w = Tensor::normal({20, 18}, 0.0f, 0.4f, rng);
  Tensor x({18, 5});
  for (std::int64_t i = 0; i < x.numel(); ++i)
    x[i] = static_cast<float>(rng.uniform(0.0, 1.0));
  for (const bool fast_noise : {false, true}) {
    std::shared_ptr<const xbar::MvmModel> model;
    if (fast_noise)
      model = std::make_shared<xbar::FastNoiseModel>(cfg);
    else
      model = std::make_shared<xbar::IdealXbarModel>(cfg);
    puma::TiledMatrix tiled(w, model, puma::HwConfig{});
    Tensor ref;
    {
      simd::ScopedIsaForTests scope(simd::Isa::Scalar);
      ThreadPool serial(1);
      ThreadPool::ScopedUse use(serial);
      ref = tiled.matmul(x, 0.0f);
    }
    for (simd::Isa isa : test_isas()) {
      simd::ScopedIsaForTests scope(isa);
      for (std::size_t threads : {1u, 3u}) {
        ThreadPool pool(threads);
        ThreadPool::ScopedUse use(pool);
        Tensor out = tiled.matmul(x, 0.0f);
        for (std::int64_t i = 0; i < out.numel(); ++i)
          EXPECT_EQ(out[i], ref[i])
              << (fast_noise ? "fast_noise" : "ideal")
              << " isa=" << simd::isa_name(isa) << " threads=" << threads
              << " i=" << i;
      }
    }
  }
}

/// Regression: a FaultModel wrapper — even with every rate at zero — must
/// keep the wrapped model off the fully-digital int route. The digital
/// route computes exact integer dot products and would silently erase the
/// fault rewrite (stuck cells, dead lines, drift) the wrapper applies to
/// the programmed conductances; FaultModel(ideal) is only "ideal" in name.
/// Pinned as bit-identity across every ISA tier, plus the route counter
/// staying flat.
TEST(IntPath, FaultWrappedIdealNeverTakesDigitalRoute) {
  Rng rng(74);
  const auto cfg = tiny_config(16);
  Tensor w = Tensor::normal({20, 18}, 0.0f, 0.4f, rng);
  Tensor x({18, 5});
  for (std::int64_t i = 0; i < x.numel(); ++i)
    x[i] = static_cast<float>(rng.uniform(0.0, 1.0));
  xbar::FaultOptions fo;  // all rates zero: the rewrite is the identity
  auto model = std::make_shared<xbar::FaultModel>(
      std::make_shared<xbar::IdealXbarModel>(cfg), fo);
  puma::TiledMatrix tiled(w, model, puma::HwConfig{});
  metrics::Counter& digital_mms =
      metrics::counter("puma/tiled/matmuls_int_digital");

  Tensor ref;
  {
    simd::ScopedIsaForTests scope(simd::Isa::Scalar);
    ref = tiled.matmul(x, 0.0f);
  }
  ASSERT_GT(ref.abs_max(), 0.0f);
  for (simd::Isa isa : test_isas()) {
    simd::ScopedIsaForTests scope(isa);
    const std::uint64_t before = digital_mms.value();
    Tensor out = tiled.matmul(x, 0.0f);
    EXPECT_EQ(digital_mms.value(), before)
        << "digital route engaged for fault-wrapped model (isa="
        << simd::isa_name(isa) << ")";
    for (std::int64_t i = 0; i < out.numel(); ++i)
      EXPECT_EQ(out[i], ref[i]) << "isa=" << simd::isa_name(isa) << " i=" << i;
  }
}

/// Models without a chunk override (the circuit solver, and the Fault /
/// Variation decorators over any base) take the integer DAC route: the
/// base mvm_chunks_active materializes v_unit * float(code), and a
/// stream's default mvm_chunks_active forwards through that same stream,
/// so the solver still warm-starts. Each is deterministic across thread
/// counts.
TEST(IntPath, DefaultChunkRouteServesSolverAndDecorators) {
  Rng rng(76);
  Rng mlp_rng(77);
  const auto cfg = tiny_config(16);
  xbar::FaultOptions fo;
  fo.stuck_on_rate = 0.05;
  fo.stuck_off_rate = 0.05;
  xbar::SolverOptions so;
  so.warm_start_streams = true;
  auto geniex = std::make_shared<xbar::GeniexModel>(
      cfg, xbar::MlpRegressor(xbar::kGeniexFeatureCount, 8, mlp_rng));
  const std::vector<
      std::pair<std::string, std::shared_ptr<const xbar::MvmModel>>>
      models = {
          {"circuit_solver",
           std::make_shared<xbar::CircuitSolverModel>(tiny_config(8), so)},
          {"variation(fault(geniex))",
           std::make_shared<xbar::VariationModel>(
               std::make_shared<xbar::FaultModel>(geniex, fo),
               xbar::VariationOptions{})},
          {"fault(fast_noise)",
           std::make_shared<xbar::FaultModel>(
               std::make_shared<xbar::FastNoiseModel>(cfg), fo)},
          {"fault(ideal)",
           std::make_shared<xbar::FaultModel>(
               std::make_shared<xbar::IdealXbarModel>(cfg), fo)},
      };
  metrics::Counter& chunk_mms =
      metrics::counter("puma/tiled/matmuls_int_chunks");
  metrics::Counter& warm = metrics::counter("solver/warm_starts");
  for (const auto& [tag, model] : models) {
    // Two row tiles and two column tiles, the second of each partial.
    const std::int64_t n = model->config().rows;
    Tensor w = Tensor::normal({n + 4, n + 2}, 0.0f, 0.4f, rng);
    Tensor x({n + 2, 3});
    for (std::int64_t i = 0; i < x.numel(); ++i)
      x[i] = static_cast<float>(rng.uniform(0.0, 1.0));
    puma::TiledMatrix tiled(w, model, puma::HwConfig{});

    Tensor ref;
    {
      ThreadPool serial(1);
      ThreadPool::ScopedUse use(serial);
      const std::uint64_t chunks0 = chunk_mms.value();
      const std::uint64_t warm0 = warm.value();
      ref = tiled.matmul(x, 0.0f);
      EXPECT_GT(chunk_mms.value(), chunks0)
          << tag << ": int chunk path did not engage";
      if (tag == "circuit_solver") {
        EXPECT_GT(warm.value(), warm0) << "solver streams did not warm-start";
      }
    }
    ASSERT_GT(ref.abs_max(), 0.0f) << tag;
    ThreadPool pool(3);
    ThreadPool::ScopedUse use(pool);
    Tensor out = tiled.matmul(x, 0.0f);
    ASSERT_EQ(out.numel(), ref.numel()) << tag;
    for (std::int64_t i = 0; i < out.numel(); ++i)
      EXPECT_EQ(float_bits(out[i]), float_bits(ref[i])) << tag << " i=" << i;
  }
}

// ---------------------------------------------------------------------------
// Solver stream warm-starting
// ---------------------------------------------------------------------------

TEST(SolverStream, WarmStartMatchesColdWithinToleranceAndSavesSweeps) {
  Rng rng(51);
  const xbar::CrossbarConfig cfg = tiny_config(8);
  Tensor g = random_conductances(cfg, rng);
  const std::int64_t block = 3;
  // Two correlated chunk blocks, like successive DAC bit-streams.
  Tensor chunk1 = random_voltage_block(cfg, block, rng);
  Tensor chunk2 = chunk1;
  for (std::int64_t i = 0; i < chunk2.numel(); ++i)
    chunk2[i] = std::max(0.0f, chunk2[i] * 0.5f +
                                   static_cast<float>(rng.uniform(
                                       0.0, 0.1 * cfg.v_read)));

  metrics::Counter& sweeps = metrics::counter("solver/sweeps");
  metrics::Counter& warm = metrics::counter("solver/warm_starts");

  xbar::CircuitSolverModel model(cfg, {});
  std::unique_ptr<xbar::ProgrammedXbar> xb = model.program(g);

  // Cold baseline: independent solves for both chunks.
  const std::uint64_t s0 = sweeps.value();
  Tensor cold1 = xb->mvm_multi(chunk1);
  Tensor cold2 = xb->mvm_multi(chunk2);
  const std::uint64_t cold_sweeps = sweeps.value() - s0;

  // Streamed: the second chunk's solves start from the first's voltages.
  const std::uint64_t w0 = warm.value(), s1 = sweeps.value();
  std::unique_ptr<xbar::XbarStream> stream = xb->open_stream();
  Tensor warm1 = stream->mvm_multi_active(chunk1, cfg.rows, cfg.cols);
  Tensor warm2 = stream->mvm_multi_active(chunk2, cfg.rows, cfg.cols);
  const std::uint64_t warm_sweeps = sweeps.value() - s1;

  // Every streamed solve is seeded: chunk 1 from the analytic flow
  // refinement of the cold broadcast, chunk 2 from chunk 1's voltages.
  EXPECT_EQ(warm.value() - w0, static_cast<std::uint64_t>(2 * block));
  EXPECT_LT(warm_sweeps, cold_sweeps);
  // Seeded solves agree with cold within solve tolerance (currents are
  // ~i_scale; the solver converges node voltages to tol * v_read).
  const double tol = cfg.i_scale() * 1e-5;
  for (std::int64_t i = 0; i < cold1.numel(); ++i)
    EXPECT_NEAR(warm1[i], cold1[i], tol) << i;
  for (std::int64_t i = 0; i < cold2.numel(); ++i)
    EXPECT_NEAR(warm2[i], cold2[i], tol) << i;
}

TEST(SolverStream, WarmStartDisabledMatchesColdBitExactly) {
  Rng rng(52);
  const xbar::CrossbarConfig cfg = tiny_config(8);
  Tensor g = random_conductances(cfg, rng);
  Tensor chunk1 = random_voltage_block(cfg, 2, rng);
  Tensor chunk2 = random_voltage_block(cfg, 2, rng);

  xbar::SolverOptions opt;
  opt.warm_start_streams = false;
  xbar::CircuitSolverModel model(cfg, opt);
  std::unique_ptr<xbar::ProgrammedXbar> xb = model.program(g);
  Tensor cold1 = xb->mvm_multi(chunk1);
  Tensor cold2 = xb->mvm_multi(chunk2);
  std::unique_ptr<xbar::XbarStream> stream = xb->open_stream();
  Tensor out1 = stream->mvm_multi_active(chunk1, cfg.rows, cfg.cols);
  Tensor out2 = stream->mvm_multi_active(chunk2, cfg.rows, cfg.cols);
  for (std::int64_t i = 0; i < cold1.numel(); ++i)
    EXPECT_EQ(out1[i], cold1[i]) << i;
  for (std::int64_t i = 0; i < cold2.numel(); ++i)
    EXPECT_EQ(out2[i], cold2[i]) << i;
}

TEST(SolverStream, TiledMatmulSweepsDropWithWarmStart) {
  Rng rng(53);
  const xbar::CrossbarConfig cfg = tiny_config(8);
  Tensor w = Tensor::normal({8, 8}, 0.0f, 0.4f, rng);
  Tensor x({8, 3});
  for (std::int64_t i = 0; i < x.numel(); ++i)
    x[i] = static_cast<float>(rng.uniform(0.0, 1.0));
  metrics::Counter& sweeps = metrics::counter("solver/sweeps");

  auto run = [&](bool warm_start) {
    xbar::SolverOptions opt;
    opt.warm_start_streams = warm_start;
    auto model = std::make_shared<xbar::CircuitSolverModel>(cfg, opt);
    puma::TiledMatrix tiled(w, model, puma::HwConfig{});
    const std::uint64_t before = sweeps.value();
    Tensor out = tiled.matmul(x, 0.0f);
    return std::pair<Tensor, std::uint64_t>(std::move(out),
                                            sweeps.value() - before);
  };
  auto [cold_out, cold_sweeps] = run(false);
  auto [warm_out, warm_sweeps] = run(true);
  EXPECT_LT(warm_sweeps, cold_sweeps);
  // The digital result is ADC-quantized, so solver differences within
  // tolerance rarely move the output at all; allow one ADC step.
  const float step = static_cast<float>(cfg.i_scale()) /
                     static_cast<float>((1 << 10) - 1);
  for (std::int64_t i = 0; i < cold_out.numel(); ++i)
    EXPECT_NEAR(warm_out[i], cold_out[i], step) << i;
}

}  // namespace
}  // namespace nvm
