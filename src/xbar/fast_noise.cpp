#include "xbar/fast_noise.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/check.h"
#include "common/simd.h"
#include "xbar/device.h"

namespace nvm::xbar {

namespace {

/// Compiled chunk kernel for the fast-noise model: everything in
/// mvm_chunks_active that does not depend on the input — the per-cell
/// attenuation divide and the per-(cell, code) contribution tables for
/// BOTH sinhc branches, plus the per-cell branch cutoff — is hoisted to
/// compile time, leaving only the code gather per sample at run time.
///
/// Two tables per cell are required for bit identity: mvm_chunks_active
/// picks its branch per call from the row's max code (vmax = double(
/// v_unit * float(cmax)) with its own rounding), and near the 1.2
/// threshold the poly and exact forms differ in the last ULPs, so the
/// kernel must reproduce the same branch choice, not just "a" sinhc.
/// float(v_unit * float(c)) is monotone in c, so the branch condition
/// fails first at a well-defined cutoff code per cell; at run time the
/// row's cmax is compared against it. Table entries themselves are
/// cmax-independent (each is a function of the code alone), and both
/// builders below run mvm_chunks_active's exact op sequence.
class FastNoiseFusedKernel final : public FusedChunkKernel {
 public:
  FastNoiseFusedKernel(const CrossbarConfig& cfg, const Tensor& g,
                       const std::vector<double>& growsum,
                       const std::vector<double>& col_atten, float v_unit,
                       int max_code)
      : rows_(cfg.rows), cols_(cfg.cols), v_unit_(v_unit),
        codes_(max_code + 1) {
    const double b = cfg.device_nonlin;
    const float* pgf = g.raw();
    tabs_.resize(static_cast<std::size_t>(cols_ * rows_ * 2 * codes_));
    cut_.resize(static_cast<std::size_t>(cols_ * rows_));
    for (std::int64_t j = 0; j < cols_; ++j) {
      const double r_row_base = cfg.r_source + cfg.r_wire * j;
      const double catten = col_atten[static_cast<std::size_t>(j)];
      for (std::int64_t i = 0; i < rows_; ++i) {
        const double atten =
            1.0 / (1.0 + r_row_base * growsum[static_cast<std::size_t>(i)]);
        const double gij = pgf[i * cols_ + j];
        const double s = atten * catten;
        // Smallest cmax whose row fails mvm_chunks_active's poly condition;
        // rows with cmax below it take the polynomial branch.
        int cut = max_code + 1;
        for (int c = 1; c <= max_code; ++c) {
          const double vmax =
              static_cast<double>(v_unit * static_cast<float>(c));
          if (!(std::abs(b) * s * vmax < 1.2)) {
            cut = c;
            break;
          }
        }
        cut_[static_cast<std::size_t>(j * rows_ + i)] =
            static_cast<std::int8_t>(cut);
        double* poly =
            tabs_.data() + static_cast<std::size_t>((j * rows_ + i) * 2) *
                               static_cast<std::size_t>(codes_);
        double* exact = poly + codes_;
        for (int c = 0; c <= max_code; ++c) {
          const float vf = v_unit * static_cast<float>(c);
          const double v_eff = static_cast<double>(vf) * atten * catten;
          const double x = b * v_eff;
          const double x2 = x * x;
          constexpr double c1 = 1.0 / 6.0, c2 = 1.0 / 120.0;
          constexpr double c3 = 1.0 / 5040.0, c4 = 1.0 / 362880.0;
          const double shc =
              1.0 + x2 * (c1 + x2 * (c2 + x2 * (c3 + x2 * c4)));
          poly[c] = gij * v_eff * shc;
          exact[c] = device_current(gij, v_eff, b);
        }
      }
    }
  }

  void run(const ChunkBlock& cb, std::int64_t rows_used,
           std::int64_t cols_used, float* out,
           simd::Workspace& ws) const override {
    NVM_CHECK_EQ(cb.rows, rows_);
    NVM_CHECK_EQ(cb.v_unit, v_unit_);
    const std::int64_t n = cb.n;
    if (n == 0) return;
    count_mvm_multi_columns(n);
    std::span<double> acc = ws.doubles(11, static_cast<std::size_t>(n));
    for (std::int64_t j = 0; j < cols_used; ++j) {
      const double* cells =
          tabs_.data() + static_cast<std::size_t>(j * rows_ * 2) *
                             static_cast<std::size_t>(codes_);
      const std::int8_t* cut = cut_.data() + j * rows_;
      for (std::int64_t k = 0; k < n; ++k)
        acc[static_cast<std::size_t>(k)] = 0.0;
      for (std::int64_t i = 0; i < rows_used; ++i) {
        const int cmax = cb.row_max[i];
        if (cmax == 0) continue;  // all contributions exactly +0.0
        const double* tab = cells + (i * 2 + (cmax < cut[i] ? 0 : 1)) * codes_;
        const std::int8_t* crow = cb.chunk + i * n;
        for (std::int64_t k = 0; k < n; ++k)
          acc[static_cast<std::size_t>(k)] += tab[crow[k]];
      }
      float* orow = out + j * n;
      for (std::int64_t k = 0; k < n; ++k)
        orow[k] = static_cast<float>(acc[static_cast<std::size_t>(k)]);
    }
    guard_output_finite(out, cols_used * n, "fast_noise");
  }

 private:
  std::int64_t rows_, cols_;
  float v_unit_;
  std::int64_t codes_;
  std::vector<double> tabs_;     ///< [(j*rows + i) * 2 + branch][code]
  std::vector<std::int8_t> cut_; ///< [j*rows + i] poly/exact cutoff cmax
};

class FastNoiseProgrammed final : public ProgrammedXbar {
 public:
  FastNoiseProgrammed(const CrossbarConfig& cfg, Tensor g)
      : cfg_(cfg), g_(std::move(g)) {
    const std::int64_t rows = cfg_.rows, cols = cfg_.cols;
    growsum_.assign(static_cast<std::size_t>(rows), 0.0);
    gsum_.assign(static_cast<std::size_t>(cols), 0.0);
    const float* pg = g_.raw();
    for (std::int64_t i = 0; i < rows; ++i) {
      double& rsum = growsum_[static_cast<std::size_t>(i)];
      for (std::int64_t j = 0; j < cols; ++j) {
        const double gij = pg[i * cols + j];
        rsum += gij;
        gsum_[static_cast<std::size_t>(j)] += gij;
      }
    }
    col_atten_.assign(static_cast<std::size_t>(cols), 1.0);
    const double r_col = cfg_.r_sink + 0.5 * cfg_.r_wire * rows;
    for (std::int64_t j = 0; j < cols; ++j)
      col_atten_[static_cast<std::size_t>(j)] =
          1.0 / (1.0 + r_col * gsum_[static_cast<std::size_t>(j)]);
  }

  Tensor mvm(const Tensor& v) override {
    NVM_CHECK_EQ(v.numel(), cfg_.rows);
    const std::int64_t rows = cfg_.rows, cols = cfg_.cols;
    const double b = cfg_.device_nonlin;
    Tensor out({cols});
    for (std::int64_t j = 0; j < cols; ++j) {
      const double r_row_base = cfg_.r_source + cfg_.r_wire * j;
      double acc = 0.0;
      for (std::int64_t i = 0; i < rows; ++i) {
        const double atten =
            1.0 / (1.0 + r_row_base * growsum_[static_cast<std::size_t>(i)]);
        const double v_eff =
            v[i] * atten * col_atten_[static_cast<std::size_t>(j)];
        acc += device_current(g_.at(i, j), v_eff, b);
      }
      out[j] = static_cast<float>(acc);
    }
    guard_output_finite(out, "fast_noise");
    return out;
  }

  Tensor mvm_multi(const Tensor& v_block) override {
    NVM_CHECK_EQ(v_block.rank(), 2u);
    return mvm_multi_active(v_block, cfg_.rows, cfg_.cols);
  }

  std::unique_ptr<FusedChunkKernel> compile_chunk_kernel(
      float v_unit, int max_code) const override {
    // The table layout holds 2*(max_code+1) doubles per cell; stay within
    // the 7-bit DAC code limit and a sane footprint
    // (8 MiB/kernel covers 256x256 tiles at stream_bits <= 5).
    if (max_code < 1 || max_code + 1 > 32) return nullptr;
    const std::int64_t doubles =
        cfg_.rows * cfg_.cols * 2 * (max_code + 1);
    if (doubles > (std::int64_t{1} << 20)) return nullptr;
    return std::make_unique<FastNoiseFusedKernel>(cfg_, g_, growsum_,
                                                  col_atten_, v_unit,
                                                  max_code);
  }

  Tensor mvm_chunks_active(const ChunkBlock& cb, std::int64_t rows_used,
                           std::int64_t cols_used) override {
    NVM_CHECK_EQ(cb.rows, cfg_.rows);
    const std::int64_t n = cb.n;
    if (n == 0) return Tensor();
    count_mvm_multi_columns(n);
    const double b = cfg_.device_nonlin;
    Tensor out({cfg_.cols, n});
    const float* pgf = g_.raw();
    thread_local simd::Workspace ws;
    std::span<double> acc = ws.doubles(0, static_cast<std::size_t>(n));
    // Integer DAC codes come from an alphabet of <= 128 values, so each
    // cell's contribution is one of <= row_max+1 doubles: precompute them
    // per (cell, code) and gather. Every table entry is produced by the
    // exact op sequence the voltage path runs per sample (v = v_unit *
    // float(code) as simd::scale computes it, then v*atten, *col_atten,
    // the same sinhc branch), and the branch choice keys off the same
    // vmax (v_unit*row_max is the row's max voltage by monotonicity), so
    // this is bit-identical to mvm_multi_active on materialized volts.
    double tab[129];
    for (std::int64_t j = 0; j < cols_used; ++j) {
      const double r_row_base = cfg_.r_source + cfg_.r_wire * j;
      const double catten = col_atten_[static_cast<std::size_t>(j)];
      for (std::int64_t k = 0; k < n; ++k)
        acc[static_cast<std::size_t>(k)] = 0.0;
      for (std::int64_t i = 0; i < rows_used; ++i) {
        const int cmax = cb.row_max[i];
        if (cmax == 0) continue;  // all contributions exactly +0.0
        const double atten =
            1.0 / (1.0 + r_row_base * growsum_[static_cast<std::size_t>(i)]);
        const double gij = pgf[i * cfg_.cols + j];
        const double s = atten * catten;
        const double vmax =
            static_cast<double>(cb.v_unit * static_cast<float>(cmax));
        if (std::abs(b) * s * vmax < 1.2) {
          for (int c = 0; c <= cmax; ++c) {
            const float vf = cb.v_unit * static_cast<float>(c);
            const double v_eff = static_cast<double>(vf) * atten * catten;
            const double x = b * v_eff;
            const double x2 = x * x;
            constexpr double c1 = 1.0 / 6.0, c2 = 1.0 / 120.0;
            constexpr double c3 = 1.0 / 5040.0, c4 = 1.0 / 362880.0;
            const double shc =
                1.0 + x2 * (c1 + x2 * (c2 + x2 * (c3 + x2 * c4)));
            tab[c] = gij * v_eff * shc;
          }
        } else {
          for (int c = 0; c <= cmax; ++c) {
            const float vf = cb.v_unit * static_cast<float>(c);
            const double v_eff = static_cast<double>(vf) * atten * catten;
            tab[c] = device_current(gij, v_eff, b);
          }
        }
        const std::int8_t* crow = cb.chunk + i * n;
        for (std::int64_t k = 0; k < n; ++k)
          acc[static_cast<std::size_t>(k)] += tab[crow[k]];
      }
      float* orow = out.raw() + j * n;
      for (std::int64_t k = 0; k < n; ++k)
        orow[k] = static_cast<float>(acc[static_cast<std::size_t>(k)]);
    }
    guard_output_finite(out, "fast_noise");
    return out;
  }

  Tensor mvm_multi_active(const Tensor& v_block, std::int64_t rows_used,
                          std::int64_t cols_used) override {
    NVM_CHECK_EQ(v_block.rank(), 2u);
    NVM_CHECK_EQ(v_block.dim(0), cfg_.rows);
    const std::int64_t n = v_block.dim(1);
    if (n == 0) return Tensor();
    count_mvm_multi_columns(n);
    const double b = cfg_.device_nonlin;
    Tensor out({cfg_.cols, n});
    const float* pv = v_block.raw();
    const float* pg = g_.raw();
    thread_local simd::Workspace ws;
    std::span<double> acc = ws.doubles(0, static_cast<std::size_t>(n));
    std::span<double> vmax = ws.doubles(1, static_cast<std::size_t>(rows_used));
    for (std::int64_t i = 0; i < rows_used; ++i) {
      const float* vrow = pv + i * n;
      double m = 0.0;
      for (std::int64_t k = 0; k < n; ++k)
        m = std::max(m, std::abs(static_cast<double>(vrow[k])));
      vmax[static_cast<std::size_t>(i)] = m;
    }
    // Blocked across the RHS: the per-(i,j) attenuation divide is hoisted
    // out of the sample loop (the single-vector path pays it per sample).
    // Each sample keeps the exact op sequence of mvm() — v*atten, then
    // *col_atten, scalar device_current, ascending-i double accumulation —
    // so this is bit-identical to looping mvm() over the block.
    for (std::int64_t j = 0; j < cols_used; ++j) {
      const double r_row_base = cfg_.r_source + cfg_.r_wire * j;
      const double catten = col_atten_[static_cast<std::size_t>(j)];
      for (std::int64_t k = 0; k < n; ++k) acc[static_cast<std::size_t>(k)] = 0.0;
      for (std::int64_t i = 0; i < rows_used; ++i) {
        const double atten =
            1.0 / (1.0 + r_row_base * growsum_[static_cast<std::size_t>(i)]);
        const double gij = pg[i * cfg_.cols + j];
        const float* vrow = pv + i * n;
        const double s = atten * catten;
        if (std::abs(b) * s * vmax[static_cast<std::size_t>(i)] < 1.2) {
          // Every sample of this cell lands in sinhc's polynomial branch,
          // so the branch is uniform across the k loop and the body below
          // — the same double ops device_current performs, written out —
          // auto-vectorizes across samples. Bit-identical either way:
          // IEEE elementwise ops don't change under SIMD.
          for (std::int64_t k = 0; k < n; ++k) {
            const double v_eff = vrow[k] * atten * catten;
            const double x = b * v_eff;
            const double x2 = x * x;
            constexpr double c1 = 1.0 / 6.0, c2 = 1.0 / 120.0;
            constexpr double c3 = 1.0 / 5040.0, c4 = 1.0 / 362880.0;
            const double shc = 1.0 + x2 * (c1 + x2 * (c2 + x2 * (c3 + x2 * c4)));
            acc[static_cast<std::size_t>(k)] += gij * v_eff * shc;
          }
        } else {
          for (std::int64_t k = 0; k < n; ++k) {
            const double v_eff = vrow[k] * atten * catten;
            acc[static_cast<std::size_t>(k)] += device_current(gij, v_eff, b);
          }
        }
      }
      float* orow = out.raw() + j * n;
      for (std::int64_t k = 0; k < n; ++k)
        orow[k] = static_cast<float>(acc[static_cast<std::size_t>(k)]);
    }
    guard_output_finite(out, "fast_noise");
    return out;
  }

 private:
  const CrossbarConfig& cfg_;
  Tensor g_;
  std::vector<double> growsum_, gsum_, col_atten_;
};

}  // namespace

std::unique_ptr<ProgrammedXbar> FastNoiseModel::program(const Tensor& g) const {
  validate_conductances(g, cfg_);
  return std::make_unique<FastNoiseProgrammed>(cfg_, g);
}

}  // namespace nvm::xbar
