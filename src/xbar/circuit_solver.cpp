#include "xbar/circuit_solver.h"


#include <cmath>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/health.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "xbar/device.h"

namespace nvm::xbar {

namespace {

/// Thomas algorithm for a tridiagonal system. diag/rhs are overwritten.
/// `off` is the (constant) off-diagonal entry (-gw here, passed positive
/// and applied with its sign internally for clarity at the call sites).
void solve_tridiagonal(std::vector<double>& diag, std::vector<double>& rhs,
                       double off, std::vector<double>& out) {
  const std::size_t n = diag.size();
  // Forward elimination: eliminate the sub-diagonal (-off).
  for (std::size_t k = 1; k < n; ++k) {
    const double m = -off / diag[k - 1];
    diag[k] -= m * -off;
    rhs[k] -= m * rhs[k - 1];
  }
  out[n - 1] = rhs[n - 1] / diag[n - 1];
  for (std::size_t k = n - 1; k-- > 0;)
    out[k] = (rhs[k] + off * out[k + 1]) / diag[k];
}

/// Reusable relinearization/solve scratch. Every solve fully overwrites
/// each array before reading it, so reuse across solves (and across
/// crossbars of different sizes) cannot leak state between calls. One
/// instance lives per thread (see tls_workspace), which makes concurrent
/// mvm() calls on the same SolverProgrammed allocation-free and race-free.
struct SolverWorkspace {
  std::vector<double> geff;            // secant conductances
  std::vector<double> vr, vc;          // row/column node voltages
  std::vector<double> diag, rhs, sol;  // per-chain tridiagonal scratch
  // Batched (red-black) scratch: all chains of one plane eliminated in
  // lockstep. Row plane uses the transposed layout [j*rows + i] so the
  // inner loop over chains i is contiguous; the column plane's natural
  // layout [i*cols + j] already has contiguous chains j.
  std::vector<double> diagb, rhsb, solb;
};

/// A previous solve's converged node voltages, used to warm-start a
/// correlated solve. Both planes matter: vc seeds the first row solve's
/// right-hand side, and vr seeds the first device re-linearization (with
/// the default cold broadcast vr[i][j] = v[i], the sweep-1 secant
/// conductances carry the full row-side IR-drop error no matter how good
/// the vc seed is, which is why seeding vc alone saves nothing).
struct SolverSeed {
  std::vector<double> vr, vc;

  bool usable(std::size_t cells) const {
    return vr.size() == cells && vc.size() == cells;
  }
};

SolverWorkspace& tls_workspace() {
  thread_local SolverWorkspace ws;
  return ws;
}

/// Crossbar nodal analysis via block line relaxation: each outer iteration
/// re-linearizes the nonlinear devices (secant conductance), then solves
/// every row wire chain and every column wire chain exactly as tridiagonal
/// systems with the opposite side held fixed. The wire stiffness
/// (g_wire >> g_device) is handled inside the direct solves, so the outer
/// loop converges at the device/wire coupling rate — a handful of sweeps.
///
/// `g` is the programmed conductance matrix in row-major doubles; it is
/// read-only, so one programmed crossbar can be solved from many threads.
/// One attempt only — the retry policy lives in solve_nodal below.
Tensor solve_nodal_once(const CrossbarConfig& cfg, const SolverOptions& opt,
                        std::span<const double> g, const Tensor& v,
                        SolverWorkspace& ws, SolveStats& stats,
                        const SolverSeed* seed = nullptr) {
  NVM_TRACE_SPAN("xbar/solver/solve");
  const std::int64_t rows = cfg.rows, cols = cfg.cols;
  NVM_CHECK_EQ(v.numel(), rows);
  NVM_CHECK_EQ(g.size(), static_cast<std::size_t>(rows * cols));
  const double gs = 1.0 / cfg.r_source;
  const double gk = 1.0 / cfg.r_sink;
  const double gw = 1.0 / cfg.r_wire;
  const auto idx = [cols](std::int64_t i, std::int64_t j) {
    return static_cast<std::size_t>(i * cols + j);
  };

  const std::size_t cells = static_cast<std::size_t>(rows * cols);
  ws.geff.resize(cells);
  ws.vr.resize(cells);
  ws.vc.resize(cells);
  // Node voltages seed from a caller-provided warm start (a correlated
  // previous solve's fixed point) or cold: vr broadcast from the drive,
  // vc from ground.
  if (seed != nullptr && seed->usable(cells)) {
    std::copy(seed->vr.begin(), seed->vr.end(), ws.vr.begin());
    std::copy(seed->vc.begin(), seed->vc.end(), ws.vc.begin());
    static metrics::Counter& m_warm = metrics::counter("solver/warm_starts");
    m_warm.add();
  } else if (opt.coarse_start) {
    // Coarse-grid analytic cold seed. Row plane: closed-form IR-drop
    // attenuation v[i] / (1 + R_row(j) * Growsum_i), with R_row averaged
    // over coarse column blocks (one divide per block instead of per
    // cell). Column plane: one linearized flow reconstruction — device
    // currents approximated as g * vr, then the column profile follows
    // exactly from cumulative sums (the wires are linear). Costs about
    // half a sweep; replaces the flat broadcast whose error is the entire
    // IR drop.
    static metrics::Counter& m_coarse =
        metrics::counter("solver/coarse_starts");
    m_coarse.add();
    constexpr std::int64_t kBlock = 8;
    ws.diag.resize(static_cast<std::size_t>(rows));  // per-row g sums
    for (std::int64_t i = 0; i < rows; ++i) {
      double s = 0.0;
      for (std::int64_t j = 0; j < cols; ++j) s += g[idx(i, j)];
      ws.diag[static_cast<std::size_t>(i)] = s;
    }
    for (std::int64_t i = 0; i < rows; ++i) {
      const double growsum = ws.diag[static_cast<std::size_t>(i)];
      for (std::int64_t j0 = 0; j0 < cols; j0 += kBlock) {
        const std::int64_t j1 = std::min(cols, j0 + kBlock);
        const double jc = 0.5 * static_cast<double>(j0 + j1 - 1);
        const double atten =
            1.0 / (1.0 + (cfg.r_source + cfg.r_wire * jc) * growsum);
        const double vij = v[i] * atten;
        for (std::int64_t j = j0; j < j1; ++j) ws.vr[idx(i, j)] = vij;
      }
    }
    // Linearized currents into geff (recomputed at sweep start anyway).
    for (std::size_t k = 0; k < cells; ++k) ws.geff[k] = g[k] * ws.vr[k];
    for (std::int64_t j = 0; j < cols; ++j) {
      double below = 0.0;
      for (std::int64_t i = 0; i < rows; ++i) below += ws.geff[idx(i, j)];
      double vc = below * cfg.r_sink;
      ws.vc[idx(rows - 1, j)] = vc;
      for (std::int64_t i = rows - 2; i >= 0; --i) {
        below -= ws.geff[idx(i + 1, j)];
        vc += below * cfg.r_wire;
        ws.vc[idx(i, j)] = vc;
      }
    }
  } else {
    for (std::int64_t i = 0; i < rows; ++i)
      for (std::int64_t j = 0; j < cols; ++j) ws.vr[idx(i, j)] = v[i];
    std::fill(ws.vc.begin(), ws.vc.end(), 0.0);
  }

  const bool batched = opt.ordering == SweepOrdering::kRedBlack;
  // Outer-iteration damping. omega == 1.0 takes each plane's exact line
  // solve (the historical update, kept bit-identical); omega < 1 blends
  // v += omega * (solve - v), which slows but stabilizes the sweep on
  // arrays where the exact update overshoots.
  const double omega = opt.relaxation;
  NVM_CHECK(omega > 0.0 && omega <= 1.0,
            "solver relaxation must be in (0, 1], got " << omega);
  stats = SolveStats{};
  int sweep = 0;
  for (; sweep < opt.max_sweeps; ++sweep) {
    const double b = cfg.device_nonlin;
    for (std::size_t k = 0; k < cells; ++k)
      ws.geff[k] = device_secant_conductance(g[k], ws.vr[k] - ws.vc[k], b);

    double max_delta = 0.0;
    if (batched) {
      // Red plane — all row chains in lockstep. Unknowns vr[i][*] with vc
      // held fixed; chains i are independent, so the Thomas elimination
      // runs with j as the recurrence index and i as the contiguous inner
      // loop (transposed scratch [j*rows + i]). Each chain performs the
      // exact op sequence of solve_tridiagonal, so results are
      // bit-identical to the lexicographic schedule.
      ws.diagb.resize(cells);
      ws.rhsb.resize(cells);
      ws.solb.resize(cells);
      double* diagb = ws.diagb.data();
      double* rhsb = ws.rhsb.data();
      double* solb = ws.solb.data();
      for (std::int64_t i = 0; i < rows; ++i) {
        for (std::int64_t j = 0; j < cols; ++j) {
          const std::size_t k = idx(i, j);
          double d = ws.geff[k];
          double r = ws.geff[k] * ws.vc[k];
          if (j == 0) {
            d += gs;
            r += gs * v[i];
          }
          if (j > 0) d += gw;
          if (j + 1 < cols) d += gw;
          const std::size_t kt = static_cast<std::size_t>(j * rows + i);
          diagb[kt] = d;
          rhsb[kt] = r;
        }
      }
      for (std::int64_t j = 1; j < cols; ++j) {
        double* dp = diagb + j * rows;
        double* rp = rhsb + j * rows;
        const double* dm = diagb + (j - 1) * rows;
        const double* rm = rhsb + (j - 1) * rows;
        for (std::int64_t i = 0; i < rows; ++i) {
          const double m = -gw / dm[i];
          dp[i] -= m * -gw;
          rp[i] -= m * rm[i];
        }
      }
      {
        const double* dp = diagb + (cols - 1) * rows;
        const double* rp = rhsb + (cols - 1) * rows;
        double* sp = solb + (cols - 1) * rows;
        for (std::int64_t i = 0; i < rows; ++i) sp[i] = rp[i] / dp[i];
      }
      for (std::int64_t j = cols - 1; j-- > 0;) {
        const double* dp = diagb + j * rows;
        const double* rp = rhsb + j * rows;
        const double* sn = solb + (j + 1) * rows;
        double* sp = solb + j * rows;
        for (std::int64_t i = 0; i < rows; ++i)
          sp[i] = (rp[i] + gw * sn[i]) / dp[i];
      }
      for (std::int64_t i = 0; i < rows; ++i)
        for (std::int64_t j = 0; j < cols; ++j) {
          const std::size_t k = idx(i, j);
          const double s = solb[static_cast<std::size_t>(j * rows + i)];
          ws.vr[k] = omega == 1.0 ? s : ws.vr[k] + omega * (s - ws.vr[k]);
        }

      // Black plane — all column chains in lockstep. Unknowns vc[*][j]
      // with vr held fixed; the natural [i*cols + j] layout already has
      // the chain index j contiguous. Back-substitution writes vc in
      // place (row i+1 is final before row i needs it), folding the
      // convergence check into the update loop — no separate residual
      // pass.
      for (std::int64_t i = 0; i < rows; ++i) {
        double* dp = diagb + i * cols;
        double* rp = rhsb + i * cols;
        for (std::int64_t j = 0; j < cols; ++j) {
          const std::size_t k = idx(i, j);
          double d = ws.geff[k];
          if (i > 0) d += gw;
          if (i + 1 < rows) d += gw;
          else d += gk;  // bottom node ties to ground through the sink
          dp[j] = d;
          rp[j] = ws.geff[k] * ws.vr[k];
        }
      }
      for (std::int64_t i = 1; i < rows; ++i) {
        double* dp = diagb + i * cols;
        double* rp = rhsb + i * cols;
        const double* dm = diagb + (i - 1) * cols;
        const double* rm = rhsb + (i - 1) * cols;
        for (std::int64_t j = 0; j < cols; ++j) {
          const double m = -gw / dm[j];
          dp[j] -= m * -gw;
          rp[j] -= m * rm[j];
        }
      }
      if (omega == 1.0) {
        const std::size_t off = idx(rows - 1, 0);
        const double* dp = diagb + off;
        const double* rp = rhsb + off;
        double* vcp = ws.vc.data() + off;
        for (std::int64_t j = 0; j < cols; ++j) {
          const double s = rp[j] / dp[j];
          max_delta = std::max(max_delta, std::abs(s - vcp[j]));
          vcp[j] = s;
        }
        for (std::int64_t i = rows - 1; i-- > 0;) {
          const double* dp2 = diagb + i * cols;
          const double* rp2 = rhsb + i * cols;
          const double* vn = ws.vc.data() + (i + 1) * cols;
          double* vcp2 = ws.vc.data() + i * cols;
          for (std::int64_t j = 0; j < cols; ++j) {
            const double s = (rp2[j] + gw * vn[j]) / dp2[j];
            max_delta = std::max(max_delta, std::abs(s - vcp2[j]));
            vcp2[j] = s;
          }
        }
      } else {
        // Damped update: the Thomas recurrence at row i must read the
        // EXACT solution of row i+1, not the blended iterate, so the
        // back-substitution runs in solb and only the final blend
        // touches vc. max_delta stays the distance to the exact plane
        // solve (not the omega-scaled step), so damping cannot fake
        // convergence.
        {
          const std::size_t off = idx(rows - 1, 0);
          const double* dp = diagb + off;
          const double* rp = rhsb + off;
          double* sp = solb + off;
          for (std::int64_t j = 0; j < cols; ++j) sp[j] = rp[j] / dp[j];
        }
        for (std::int64_t i = rows - 1; i-- > 0;) {
          const double* dp = diagb + i * cols;
          const double* rp = rhsb + i * cols;
          const double* sn = solb + (i + 1) * cols;
          double* sp = solb + i * cols;
          for (std::int64_t j = 0; j < cols; ++j)
            sp[j] = (rp[j] + gw * sn[j]) / dp[j];
        }
        for (std::size_t k = 0; k < cells; ++k) {
          max_delta = std::max(max_delta, std::abs(solb[k] - ws.vc[k]));
          ws.vc[k] += omega * (solb[k] - ws.vc[k]);
        }
      }
    } else {
      // Row chains: unknowns vr[i][*]; vc held fixed.
      ws.diag.assign(static_cast<std::size_t>(cols), 0.0);
      ws.rhs.assign(static_cast<std::size_t>(cols), 0.0);
      ws.sol.assign(static_cast<std::size_t>(cols), 0.0);
      for (std::int64_t i = 0; i < rows; ++i) {
        for (std::int64_t j = 0; j < cols; ++j) {
          const std::size_t k = idx(i, j);
          double d = ws.geff[k];
          double r = ws.geff[k] * ws.vc[k];
          if (j == 0) {
            d += gs;
            r += gs * v[i];
          }
          if (j > 0) d += gw;
          if (j + 1 < cols) d += gw;
          ws.diag[static_cast<std::size_t>(j)] = d;
          ws.rhs[static_cast<std::size_t>(j)] = r;
        }
        solve_tridiagonal(ws.diag, ws.rhs, gw, ws.sol);
        for (std::int64_t j = 0; j < cols; ++j) {
          const std::size_t k = idx(i, j);
          const double s = ws.sol[static_cast<std::size_t>(j)];
          ws.vr[k] = omega == 1.0 ? s : ws.vr[k] + omega * (s - ws.vr[k]);
        }
      }

      // Column chains: unknowns vc[*][j]; vr held fixed.
      ws.diag.assign(static_cast<std::size_t>(rows), 0.0);
      ws.rhs.assign(static_cast<std::size_t>(rows), 0.0);
      ws.sol.assign(static_cast<std::size_t>(rows), 0.0);
      for (std::int64_t j = 0; j < cols; ++j) {
        for (std::int64_t i = 0; i < rows; ++i) {
          const std::size_t k = idx(i, j);
          double d = ws.geff[k];
          double r = ws.geff[k] * ws.vr[k];
          if (i > 0) d += gw;
          if (i + 1 < rows) d += gw;
          else d += gk;  // bottom node ties to ground through the sink
          ws.diag[static_cast<std::size_t>(i)] = d;
          ws.rhs[static_cast<std::size_t>(i)] = r;
        }
        solve_tridiagonal(ws.diag, ws.rhs, gw, ws.sol);
        for (std::int64_t i = 0; i < rows; ++i) {
          const std::size_t k = idx(i, j);
          const double s = ws.sol[static_cast<std::size_t>(i)];
          max_delta = std::max(max_delta, std::abs(s - ws.vc[k]));
          ws.vc[k] = omega == 1.0 ? s : ws.vc[k] + omega * (s - ws.vc[k]);
        }
      }
    }

    stats.last_delta = max_delta;
    // A diverging relaxation shows up as NaN/Inf voltage movement; stop
    // sweeping immediately — further sweeps only churn NaN.
    if (!std::isfinite(max_delta)) {
      ++sweep;
      stats.finite = false;
      break;
    }
    // Converge on relative voltage movement against the drive scale.
    if (max_delta < opt.tol * cfg.v_read + 1e-15) {
      ++sweep;
      stats.converged = true;
      break;
    }
  }
  stats.sweeps_used = sweep;
  static metrics::Counter& m_solves = metrics::counter("solver/solves");
  static metrics::Counter& m_sweeps = metrics::counter("solver/sweeps");
  m_solves.add();
  m_sweeps.add(static_cast<std::uint64_t>(sweep));

  Tensor out({cols});
  for (std::int64_t j = 0; j < cols; ++j)
    out[j] = static_cast<float>(ws.vc[idx(rows - 1, j)] * gk);
  guard_output_finite(out, "circuit_solver");
  return out;
}

/// solve_nodal_once plus the failure policy: a solve that exhausts
/// max_sweeps or diverges is retried ONCE from a cold start (a bad warm
/// seed may be what diverged) with halved relaxation and doubled sweep
/// budget before the scrubbed output is accepted. Only the final outcome
/// bumps HealthCounter::SolverNonConverged / warns; retries are counted
/// under solver/retries and reported in SolveStats::retries.
Tensor solve_nodal(const CrossbarConfig& cfg, const SolverOptions& opt,
                   std::span<const double> g, const Tensor& v,
                   SolverWorkspace& ws, SolveStats& stats,
                   const SolverSeed* seed = nullptr) {
  Tensor out = solve_nodal_once(cfg, opt, g, v, ws, stats, seed);
  if (!stats.ok() && opt.retry_on_nonconvergence) {
    static metrics::Counter& m_retries = metrics::counter("solver/retries");
    m_retries.add();
    SolverOptions damped = opt;
    damped.relaxation = 0.5 * opt.relaxation;
    damped.max_sweeps = 2 * opt.max_sweeps;
    out = solve_nodal_once(cfg, damped, g, v, ws, stats, nullptr);
    stats.retries = 1;
  }
  if (!stats.ok()) {
    const std::uint64_t n = bump(HealthCounter::SolverNonConverged);
    if (health_should_log(n))
      NVM_LOG(Warn) << "crossbar solve " << (stats.finite ? "hit max_sweeps"
                                                          : "diverged")
                    << " on " << cfg.name << " (" << cfg.rows << "x"
                    << cfg.cols << "): sweeps=" << stats.sweeps_used
                    << " retries=" << stats.retries
                    << " last_delta=" << stats.last_delta
                    << " tol=" << opt.tol * cfg.v_read
                    << " (non-converged total " << n << ")";
  }
  return out;
}

class SolverProgrammed final : public ProgrammedXbar {
 public:
  SolverProgrammed(CrossbarConfig cfg, SolverOptions opt, const Tensor& g)
      : cfg_(std::move(cfg)),
        opt_(opt),
        g_(g.data().begin(), g.data().end()) {}

  // Programming converted the conductances to doubles once; each call
  // borrows the calling thread's workspace, so repeated / concurrent mvm()
  // neither copies the matrix nor allocates relinearization state.
  Tensor mvm(const Tensor& v) override {
    SolveStats stats;
    return solve_nodal(cfg_, opt_, g_, v, tls_workspace(), stats);
  }

  std::unique_ptr<XbarStream> open_stream() override;

  const CrossbarConfig& cfg() const { return cfg_; }
  const SolverOptions& opt() const { return opt_; }
  std::span<const double> g() const { return g_; }

 private:
  CrossbarConfig cfg_;
  SolverOptions opt_;
  std::vector<double> g_;
};

/// Warm-starting stream: remembers, per RHS column, the previous solve's
/// drive vector and converged node voltages, and seeds the next solve
/// with a *rescaled* copy. Successive DAC bit-stream chunks of one
/// tiled-GEMM input are not proportional (they are different bit slices),
/// so the raw fixed point is a poor — sometimes worse-than-cold — seed.
/// But the network is only weakly nonlinear, so node voltages are nearly
/// linear in the drive: each row plane (an independent chain driven by
/// v[i]) rescales by v_new[i] / v_prev[i], and the column plane (a mix of
/// all rows' currents) by the least-squares drive ratio. Results differ
/// from cold solves only within the solver tolerance. Not thread-safe
/// (one stream per tile-slot task).
class SolverStream final : public XbarStream {
 public:
  explicit SolverStream(SolverProgrammed* xbar) : xbar_(xbar) {}

  Tensor mvm_multi_active(const Tensor& v_block, std::int64_t rows_used,
                          std::int64_t cols_used) override {
    (void)rows_used;  // every row conducts regardless of drive voltage
    (void)cols_used;  // column currents all fall out of the same solve
    NVM_CHECK_EQ(v_block.rank(), 2u);
    const CrossbarConfig& cfg = xbar_->cfg();
    const SolverOptions& opt = xbar_->opt();
    const std::int64_t rows = cfg.rows, cols = cfg.cols, n = v_block.dim(1);
    NVM_CHECK_EQ(v_block.dim(0), rows);
    if (n == 0) return Tensor();
    count_mvm_multi_columns(n);
    const bool warm = opt.warm_start_streams;
    const std::size_t cells = static_cast<std::size_t>(rows * cols);
    if (warm) seeds_.resize(static_cast<std::size_t>(n));
    Tensor out({cols, n});
    Tensor v({rows});
    SolverWorkspace& ws = tls_workspace();
    for (std::int64_t k = 0; k < n; ++k) {
      for (std::int64_t i = 0; i < rows; ++i) v[i] = v_block.at(i, k);
      const SolverSeed* init = nullptr;
      if (warm) {
        ColumnState& sk = seeds_[static_cast<std::size_t>(k)];
        if (sk.seed.usable(cells)) {
          rescale_seed(sk, v, rows, cols);
        } else {
          // First chunk for this column (or a poisoned history): start
          // from the cold broadcast and let the flow refinement below
          // build the IR-drop profile analytically.
          scratch_.vr.resize(cells);
          scratch_.vc.assign(cells, 0.0);
          for (std::int64_t i = 0; i < rows; ++i)
            for (std::int64_t j = 0; j < cols; ++j)
              scratch_.vr[static_cast<std::size_t>(i * cols + j)] = v[i];
        }
        refine_seed(v, rows, cols);
        refine_seed(v, rows, cols);
        refine_seed(v, rows, cols);
        refine_seed(v, rows, cols);
        init = &scratch_;
      }
      SolveStats stats;
      Tensor y = solve_nodal(cfg, opt, xbar_->g(), v, ws, stats, init);
      if (warm) {
        ColumnState& sk = seeds_[static_cast<std::size_t>(k)];
        // A diverged solve must not poison the next chunk's seed.
        if (stats.finite) {
          sk.seed.vr.assign(ws.vr.begin(), ws.vr.end());
          sk.seed.vc.assign(ws.vc.begin(), ws.vc.end());
          sk.v_prev.assign(v.raw(), v.raw() + rows);
        } else {
          sk.seed.vr.clear();
          sk.seed.vc.clear();
        }
      }
      for (std::int64_t j = 0; j < cols; ++j) out.at(j, k) = y[j];
    }
    return out;
  }

 private:
  struct ColumnState {
    SolverSeed seed;             // previous converged node voltages
    std::vector<double> v_prev;  // the drive they were solved for
  };

  /// Builds scratch_ = sk.seed rescaled from sk.v_prev to the new drive.
  void rescale_seed(const ColumnState& sk, const Tensor& v, std::int64_t rows,
                    std::int64_t cols) {
    const std::size_t cells = static_cast<std::size_t>(rows * cols);
    const CrossbarConfig& cfg = xbar_->cfg();
    std::span<const double> g = xbar_->g();
    scratch_.vr.resize(cells);
    scratch_.vc.resize(cells);
    if (growsum_.empty()) {
      growsum_.resize(static_cast<std::size_t>(rows), 0.0);
      for (std::int64_t i = 0; i < rows; ++i)
        for (std::int64_t j = 0; j < cols; ++j)
          growsum_[static_cast<std::size_t>(i)] +=
              g[static_cast<std::size_t>(i * cols + j)];
    }
    const double tiny = 1e-12;
    for (std::int64_t i = 0; i < rows; ++i) {
      const double vp = sk.v_prev[static_cast<std::size_t>(i)];
      const std::size_t off = static_cast<std::size_t>(i * cols);
      if (std::abs(vp) > tiny) {
        // Row chains are independent linear systems driven by v[i], so in
        // the weakly-nonlinear regime the saved profile rescales exactly.
        const double si = static_cast<double>(v[i]) / vp;
        for (std::int64_t j = 0; j < cols; ++j)
          scratch_.vr[off + static_cast<std::size_t>(j)] =
              si * sk.seed.vr[off + static_cast<std::size_t>(j)];
      } else {
        // Previously undriven row: its saved profile carries no signal.
        // Seed with the closed-form IR-drop attenuation (fast-noise model):
        // far better than the flat broadcast, whose error is the entire
        // row-side drop and would dominate the seed's max-norm.
        for (std::int64_t j = 0; j < cols; ++j) {
          const double r_row = cfg.r_source + cfg.r_wire * static_cast<double>(j);
          scratch_.vr[off + static_cast<std::size_t>(j)] =
              v[i] / (1.0 + r_row * growsum_[static_cast<std::size_t>(i)]);
        }
      }
    }
    // Column plane: vc[.][j] tracks the column current, which mixes every
    // row, so rescale each column by the ratio of its predicted device
    // current under the new row voltages to the current it actually
    // carried — including the sinh superlinearity, which a plain G*V
    // ratio would misestimate at high drive.
    const double b = cfg.device_nonlin;
    for (std::int64_t j = 0; j < cols; ++j) {
      double inew = 0.0, iprev = 0.0;
      for (std::int64_t i = 0; i < rows; ++i) {
        const std::size_t c = static_cast<std::size_t>(i * cols + j);
        inew += device_current(g[c], scratch_.vr[c] - sk.seed.vc[c], b);
        iprev += device_current(g[c], sk.seed.vr[c] - sk.seed.vc[c], b);
      }
      const double tj = std::abs(iprev) > tiny ? inew / iprev : 0.0;
      for (std::int64_t i = 0; i < rows; ++i) {
        const std::size_t c = static_cast<std::size_t>(i * cols + j);
        scratch_.vc[c] = tj * sk.seed.vc[c];
      }
    }
  }

  /// One flow-based refinement pass over scratch_: predict every device
  /// current from the seed voltages, then rebuild both line-voltage planes
  /// in closed form — the wires are linear, so given the injected currents
  /// the row and column profiles follow exactly from cumulative sums. Each
  /// pass costs about half a relaxation sweep and shrinks the seed error
  /// by roughly the relative IR drop (~100x at these wire resistances).
  void refine_seed(const Tensor& v, std::int64_t rows, std::int64_t cols) {
    const CrossbarConfig& cfg = xbar_->cfg();
    std::span<const double> g = xbar_->g();
    const double b = cfg.device_nonlin;
    cur_.resize(static_cast<std::size_t>(rows * cols));
    for (std::size_t c = 0; c < cur_.size(); ++c)
      cur_[c] = device_current(g[c], scratch_.vr[c] - scratch_.vc[c], b);
    // Row plane: drive v[i] sits behind r_source at j=0; the segment
    // between columns j-1 and j carries every device current still to be
    // delivered downstream of it.
    for (std::int64_t i = 0; i < rows; ++i) {
      const std::size_t off = static_cast<std::size_t>(i * cols);
      double seg = 0.0;
      for (std::int64_t j = 0; j < cols; ++j)
        seg += cur_[off + static_cast<std::size_t>(j)];
      double vr = v[i] - seg * cfg.r_source;
      scratch_.vr[off] = vr;
      for (std::int64_t j = 1; j < cols; ++j) {
        seg -= cur_[off + static_cast<std::size_t>(j - 1)];
        vr -= seg * cfg.r_wire;
        scratch_.vr[off + static_cast<std::size_t>(j)] = vr;
      }
    }
    // Column plane: everything injected at or above node i flows down
    // through the segment below it and out through r_sink at the bottom.
    for (std::int64_t j = 0; j < cols; ++j) {
      double below = 0.0;
      for (std::int64_t i = 0; i < rows; ++i)
        below += cur_[static_cast<std::size_t>(i * cols + j)];
      double vc = below * cfg.r_sink;
      scratch_.vc[static_cast<std::size_t>((rows - 1) * cols + j)] = vc;
      for (std::int64_t i = rows - 2; i >= 0; --i) {
        below -= cur_[static_cast<std::size_t>((i + 1) * cols + j)];
        vc += below * cfg.r_wire;
        scratch_.vc[static_cast<std::size_t>(i * cols + j)] = vc;
      }
    }
  }

  std::vector<double> growsum_;  // per-row conductance sums (lazy)
  std::vector<double> cur_;      // predicted device currents (scratch)

  SolverProgrammed* xbar_;
  std::vector<ColumnState> seeds_;  // per RHS column
  SolverSeed scratch_;              // rescaled seed passed to solve_nodal
};

std::unique_ptr<XbarStream> SolverProgrammed::open_stream() {
  return std::make_unique<SolverStream>(this);
}

}  // namespace

std::unique_ptr<ProgrammedXbar> CircuitSolverModel::program(
    const Tensor& g) const {
  validate_conductances(g, cfg_);
  return std::make_unique<SolverProgrammed>(cfg_, opt_, g);
}

Tensor solve_crossbar(const CrossbarConfig& cfg, const SolverOptions& opt,
                      const Tensor& g, const Tensor& v, SolveStats* stats) {
  validate_conductances(g, cfg);
  const std::vector<double> gd(g.data().begin(), g.data().end());
  SolveStats local;
  Tensor out = solve_nodal(cfg, opt, gd, v, tls_workspace(), local);
  if (stats != nullptr) *stats = local;
  return out;
}

}  // namespace nvm::xbar
