// The paper-workload benchmark program: one workload per process.
//
//   paper_bench --workload table3_quick|hil_pgd|serve_open_loop --seed N
//               --seconds S --trace 0|1 --out RESULT.json [--spans FILE]
//   paper_bench --workload W --seed N --fill     (one untimed pass)
//
// A run sets the workload up several times (the median is setup_s), then
// repeats fixed-size passes until --seconds have elapsed and reports the
// median of each per-pass figure. With --trace 1, untraced and traced
// passes alternate: the traced ones run through the decorators in
// decorators.h and give the per-layer figures; both kinds must produce
// identical outputs. paperbench/run.py builds this program, fills the file
// cache and formats the result; see there for the metric definitions.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "attack/pgd.h"
#include "attack/square.h"
#include "bench.h"
#include "common/env.h"
#include "common/rng.h"
#include "common/simd.h"
#include "common/thread_pool.h"
#include "core/evaluator.h"
#include "core/tasks.h"
#include "decorators.h"
#include "puma/hw_network.h"
#include "serve/serve.h"
#include "xbar/fast_noise.h"
#include "xbar/model_zoo.h"

namespace pb = paperbench;
using namespace nvm;

namespace {

// ---------------------------------------------------------------- sizes
// Fixed input sizes. The clean set is the first kCleanImages test images
// for every seed, so clean accuracy is a property of the deployment, not
// of the sample; the seed picks the attacked subset from the rest.
constexpr std::int64_t kCleanImages = 24;
constexpr std::int64_t kTable3AttackImages = 6;
constexpr std::int64_t kHilAttackImages = 3;
constexpr std::int64_t kPgdIters = 30;
constexpr std::int64_t kSquareQueries = 100;
// Set-up runs at least kMinSetups times and until kSetupSeconds have been
// spent in it; setup_s is the median.
constexpr int kMinSetups = 5;
constexpr int kMaxSetups = 50;
constexpr double kSetupSeconds = 1.0;

// Serve workload: the CLI's 16x128 classifier on fast-noise 32x32_100k.
constexpr std::int64_t kServeClasses = 16;
constexpr std::int64_t kServeFeatures = 128;
constexpr std::int64_t kServePool = 1024;
constexpr double kLowRps = 2000.0;
constexpr double kHighRps = 20000.0;
constexpr std::int64_t kLowRequests = 2000;
constexpr std::int64_t kHighRequests = 6000;
// slo_rps probes a fixed ladder of rates, kLadderMinRps to kLadderMaxRps
// in steps of (max - min) / 2^kLadderProbes, by bisection: first the lowest
// rate, then kLadderProbes midpoints, kLadderStepSeconds each.
constexpr double kLadderStepSeconds = 0.2;
constexpr double kLadderMinRps = 20000.0;
constexpr double kLadderMaxRps = 100000.0;
constexpr int kLadderProbes = 5;
/// p99 latency limit, from each request's due time. Host scheduling
/// stalls of up to ~10 ms occur on shared 4-vCPU machines; the limit sits
/// above them so that a ladder step fails on a growing backlog.
constexpr double kLatencyLimitMs = 20.0;

// ---------------------------------------------------------------- output
struct Result {
  std::map<std::string, std::pair<double, std::string>> metrics;
  std::vector<std::string> notes;  // report lines
  std::int64_t attempted = 0, failed = 0;
  bool correct = true;
  std::vector<std::string> check_failures;

  void set(const std::string& name, double v) {
    metrics[name] = {v, unit_for(name)};
  }
  /// Unit of a figure, from its name's suffix.
  static std::string unit_for(const std::string& name) {
    auto ends = [&](const char* suf) {
      const std::size_t n = std::strlen(suf);
      return name.size() >= n && name.compare(name.size() - n, n, suf) == 0;
    };
    auto has = [&](const char* part) {
      return name.find(part) != std::string::npos;
    };
    if (ends("_s") || has("self_s")) return "s";
    if (has("_ms")) return "ms";
    if (has("_us")) return "us";
    if (ends("_pct")) return "%";
    if (ends("_rps")) return "req/s";
    if (ends("_mb")) return "MB";
    if (ends("frac") || has("p99_q")) return "ratio";
    if (ends("batch_mean") || has("batch_mean_")) return "requests";
    if (ends("busy_cores")) return "cores";
    return "count";
  }
  void check(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      check_failures.push_back(what);
    }
  }
};

std::string json_str(const std::string& s) {
  std::string o = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    if (c == '\n') {
      o += "\\n";
      continue;
    }
    o += c;
  }
  return o + "\"";
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void write_result(const Result& r, const std::string& path) {
  std::ostringstream o;
  o << "{\"correct\": " << (r.correct ? "true" : "false")
    << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
    << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : r.metrics) {
    o << (first ? "" : ", ") << json_str(name) << ": {\"value\": "
      << json_num(vu.first) << ", \"unit\": " << json_str(vu.second) << "}";
    first = false;
  }
  o << "}, \"check_failures\": [";
  for (std::size_t i = 0; i < r.check_failures.size(); ++i)
    o << (i ? ", " : "") << json_str(r.check_failures[i]);
  o << "], \"notes\": [";
  for (std::size_t i = 0; i < r.notes.size(); ++i)
    o << (i ? ", " : "") << json_str(r.notes[i]);
  o << "], \"build\": {\"simd\": "
    << json_str(simd::isa_name(simd::active_isa()))
    << ", \"compiler\": " << json_str(PAPERBENCH_COMPILER)
    << ", \"build_type\": " << json_str(PAPERBENCH_BUILD_TYPE)
    << ", \"pool_threads\": " << ThreadPool::global().size() << "}}\n";
  std::ofstream f(path);
  f << o.str();
}


// FNV-1a over the bytes of a float sequence: equal iff bit-identical.
struct Checksum {
  std::uint64_t h = 1469598103934665603ULL;
  void add(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) h = (h ^ b[i]) * 1099511628211ULL;
  }
  void add(const Tensor& t) {
    add(t.raw(), static_cast<std::size_t>(t.numel()) * sizeof(float));
  }
  void add(std::int64_t v) { add(&v, sizeof v); }
};

double seconds_since(std::int64_t t0) {
  return static_cast<double>(pb::now_ns() - t0) * 1e-9;
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ------------------------------------------------------------ one pass
/// What one pass produced. `outputs` must be identical across every pass
/// of a run (traced or not); the rest are measurements.
struct PassOut {
  bool traced = false;
  double run_s = 0.0;
  double wall_s = 0.0;  // the whole pass (serve: run_s leaves out the ladder)
  double cpu_s = 0.0;
  std::string outputs;  // accuracies, checksums: compared across passes
  std::vector<std::int64_t> labels;  // serve: per request, -1 unless Ok
  std::string note;
  std::int64_t attempted = 0, failed = 0;
  std::vector<std::string> check_failures;
  std::map<std::string, double> e2e;      // per-pass end-to-end figures
  std::map<std::string, double> layer;    // per-pass per-layer figures
  std::vector<double> low_ms, high_ms;    // latency samples
  std::vector<double> program_ms;  // first forward after each deployment
  std::vector<pb::Span> spans;
};

/// A workload: set up once per setup round, then run passes.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds everything a pass needs; returns per-layer setup figures.
  virtual std::map<std::string, double> setup() = 0;
  virtual PassOut pass(pb::Tracer* tracer) = 0;
};

/// Spans of the traced passes, one tab-separated row each.
void write_spans(const std::vector<const PassOut*>& passes,
                 const std::string& path) {
  std::ofstream f(path);
  f << "pass\tid\tparent\tlayer\tname\tstart_ns\tend_ns\titem\n";
  for (std::size_t k = 0; k < passes.size(); ++k)
    for (const pb::Span& s : passes[k]->spans)
      f << k << '\t' << s.id << '\t' << s.parent << '\t' << s.layer << '\t'
        << s.name << '\t' << s.start_ns << '\t' << s.end_ns << '\t' << s.item
        << '\n';
}

// --------------------------------------------------------- paper workloads
struct ImageSet {
  std::vector<Tensor> x;
  std::vector<std::int64_t> y;
};

class PaperWorkload : public Workload {
 public:
  PaperWorkload(std::uint64_t seed, std::vector<std::string> xbars,
                std::int64_t attack_images)
      : seed_(seed), xbar_names_(std::move(xbars)),
        attack_images_(attack_images) {}

  std::map<std::string, double> setup() override {
    std::map<std::string, double> f;
    std::int64_t t0 = pb::now_ns();
    prepared_.emplace(core::prepare(core::task_scifar10()));
    f["core.prepare_s"] = seconds_since(t0);
    t0 = pb::now_ns();
    models_.clear();
    for (const std::string& name : xbar_names_)
      models_.push_back(xbar::make_geniex(name));
    f["xbar.model_load_s"] = seconds_since(t0);
    calib_ = prepared_->calibration_images();
    t0 = pb::now_ns();
    { puma::HwDeployment dep(prepared_->network, models_.front(), calib_); }
    f["puma.first_deploy_s"] = seconds_since(t0);

    const auto& ds = prepared_->dataset;
    const auto n_test = static_cast<std::int64_t>(ds.test_images.size());
    clean_ = {};
    atk_ = {};
    for (std::int64_t i = 0; i < kCleanImages; ++i) {
      clean_.x.push_back(ds.test_images[static_cast<std::size_t>(i)]);
      clean_.y.push_back(ds.test_labels[static_cast<std::size_t>(i)]);
    }
    std::vector<std::int64_t> pool;
    for (std::int64_t i = kCleanImages; i < n_test; ++i) pool.push_back(i);
    Rng rng(derive_seed(seed_, 7));
    rng.shuffle(pool);
    for (std::int64_t k = 0; k < attack_images_; ++k) {
      const auto i = static_cast<std::size_t>(pool[static_cast<std::size_t>(k)]);
      atk_.x.push_back(ds.test_images[i]);
      atk_.y.push_back(ds.test_labels[i]);
    }
    // A deployment whose clean accuracy is below twice chance has failed
    // (DESIGN.md section 4, expected shape 1), whatever its attack rows say.
    chance_floor_pct_ =
        2.0 * 100.0 / static_cast<double>(prepared_->task.data_spec.classes);
    return f;
  }

 protected:
  nn::Network& net() { return prepared_->network; }

  /// Deploys the network on crossbar model k (decorated when tracing).
  void deploy(std::optional<puma::HwDeployment>& dep, std::size_t k,
              pb::Tracer* t, std::optional<pb::XbarStats>& xs) {
    std::shared_ptr<const xbar::MvmModel> model = models_[k];
    if (xs) model = std::make_shared<pb::TracedMvmModel>(model, *xs);
    pb::Scope s(t, "puma", "puma.deploy");
    dep.emplace(net(), std::move(model), calib_);
    fresh_deployment_ = true;
  }

  /// Adversarial images must stay in the eps ball and in [0, 1].
  static bool in_ball(const Tensor& adv, const Tensor& x, float eps) {
    for (std::int64_t i = 0; i < x.numel(); ++i) {
      const float a = adv.raw()[i];
      if (!(a >= 0.0f && a <= 1.0f)) return false;
      if (std::fabs(a - x.raw()[i]) > eps * (1.0f + 1e-5f) + 1e-7f)
        return false;
    }
    return true;
  }

  /// PGD crafting over the attacked subset, one attack::pgd_attack per
  /// image with the per-image seeding of core::craft_pgd.
  std::vector<Tensor> craft_pgd(pb::TimedAttackModel& am, pb::Tracer* t,
                                float eps, PassOut& out) {
    attack::PgdOptions opt;
    opt.epsilon = eps;
    opt.iters = kPgdIters;
    std::vector<Tensor> adv;
    pb::Scope all(t, "attack", "attack.pgd_craft");
    for (std::size_t i = 0; i < atk_.x.size(); ++i) {
      pb::Scope s(t, "attack", "attack.pgd", static_cast<std::int64_t>(i));
      attack::PgdOptions per = opt;
      per.seed = derive_seed(opt.seed, i);
      am.item = static_cast<std::int64_t>(i);
      adv.push_back(attack::pgd_attack(am, atk_.x[i], atk_.y[i], per));
      if (!in_ball(adv.back(), atk_.x[i], eps))
        out.check_failures.push_back("PGD image outside its eps ball");
    }
    return adv;
  }

  /// Accuracy of the currently installed network over a set, each forward
  /// timed (and traced) through the ForwardFn decorator. With `out`, the
  /// forward latencies of a deployed network go to out.low_ms -- except
  /// the first one after a deployment, which also programs the crossbar
  /// tiles (they program lazily) and goes to out.program_ms.
  double eval(const std::vector<Tensor>& x, const std::vector<std::int64_t>& y,
              pb::Tracer* t, PassOut* out, std::int64_t* images) {
    pb::Scope s(t, "core", "core.accuracy");
    std::vector<double> ms;
    core::ForwardFn fn = pb::timed_forward(core::plain_forward(net()), t, ms);
    *images += static_cast<std::int64_t>(x.size());
    const double acc = core::accuracy(fn, x, y);
    if (out != nullptr && !ms.empty()) {
      auto first = ms.begin();
      if (fresh_deployment_) out->program_ms.push_back(*first++);
      out->low_ms.insert(out->low_ms.end(), first, ms.end());
    }
    fresh_deployment_ = false;
    return acc;
  }

  std::uint64_t seed_;
  std::vector<std::string> xbar_names_;
  std::int64_t attack_images_;
  std::optional<core::PreparedTask> prepared_;
  std::vector<std::shared_ptr<xbar::GeniexModel>> models_;
  std::vector<Tensor> calib_;
  ImageSet clean_, atk_;
  double chance_floor_pct_ = 20.0;
  bool fresh_deployment_ = false;
};

/// Per-layer figures of a traced paper pass, from its spans and counters.
void paper_layer_figures(PassOut& out, const pb::XbarStats& xs,
                         std::int64_t images, double pgd_success_frac,
                         std::int64_t square_queries,
                         double square_success_frac) {
  struct Stat {
    double count = 0, seconds = 0;
    std::vector<double> ms;
  };
  std::map<std::string, Stat> st;
  for (const pb::Span& sp : out.spans) {
    Stat& s = st[sp.name];
    const auto ns = static_cast<double>(sp.end_ns - sp.start_ns);
    s.count += 1;
    s.seconds += ns * 1e-9;
    s.ms.push_back(ns * 1e-6);
  }
  out.layer["puma.deploy_s"] = st["puma.deploy"].seconds;
  out.layer["puma.deploys"] = st["puma.deploy"].count;
  out.layer["core.accuracy_s"] = st["core.accuracy"].seconds;
  out.layer["core.accuracy_images"] = static_cast<double>(images);
  out.layer["core.forward_ms_p50"] = pb::median(out.low_ms);
  out.layer["core.forward_ms_p99"] = pb::tail_percentile(out.low_ms, 0.99).value;
  out.layer["puma.first_forward_ms_p50"] = pb::median(out.program_ms);
  out.layer["xbar.mvm_calls"] = static_cast<double>(xs.cov.calls.load());
  out.layer["xbar.mvm_cols"] = static_cast<double>(xs.cols.load());
  out.layer["xbar.mvm_s"] = static_cast<double>(xs.cov.busy_ns.load()) * 1e-9;
  out.layer["nn.input_grad_calls"] = st["nn.input_grad"].count;
  out.layer["nn.input_grad_ms_p50"] = pb::median(st["nn.input_grad"].ms);
  out.layer["nn.logits_calls"] = st["nn.logits"].count;
  out.layer["nn.logits_ms_p50"] = pb::median(st["nn.logits"].ms);
  out.layer["attack.pgd_craft_s"] = st["attack.pgd_craft"].seconds;
  out.layer["attack.pgd_steps"] = st["nn.input_grad"].count;
  out.layer["attack.pgd_success_frac"] = pgd_success_frac;
  out.layer["attack.square_craft_s"] = st["attack.square_craft"].seconds;
  out.layer["attack.square_queries"] = static_cast<double>(square_queries);
  out.layer["attack.square_success_frac"] = square_success_frac;
}

class Table3Quick final : public PaperWorkload {
 public:
  explicit Table3Quick(std::uint64_t seed)
      : PaperWorkload(seed, xbar::paper_model_names(), kTable3AttackImages) {}

  PassOut pass(pb::Tracer* t) override {
    PassOut out;
    out.traced = t != nullptr;
    std::optional<pb::XbarStats> xs;
    if (t != nullptr) xs.emplace(*t);
    const std::int64_t t0 = pb::now_ns();
    const double c0 = cpu_seconds();
    const core::Task& task = prepared_->task;

    // White-box PGD and Square, both against the digital network.
    attack::NetworkAttackModel digital(net());
    pb::TimedAttackModel am(digital, t);
    std::vector<Tensor> pgd = craft_pgd(am, t, task.scaled_eps(2.0f), out);
    std::vector<Tensor> square;
    std::int64_t queries = 0, sq_success = 0;
    {
      pb::Scope all(t, "attack", "attack.square_craft");
      attack::SquareOptions opt;
      opt.epsilon = task.scaled_eps(4.0f);
      opt.max_queries = kSquareQueries;
      for (std::size_t i = 0; i < atk_.x.size(); ++i) {
        pb::Scope s(t, "attack", "attack.square", static_cast<std::int64_t>(i));
        attack::SquareOptions per = opt;
        per.seed = derive_seed(opt.seed, i);
        am.item = static_cast<std::int64_t>(i);
        attack::SquareResult r =
            attack::square_attack(am, atk_.x[i], atk_.y[i], per);
        queries += r.queries_used;
        sq_success += r.success ? 1 : 0;
        if (!in_ball(r.adv, atk_.x[i], opt.epsilon))
          out.check_failures.push_back("Square image outside its eps ball");
        square.push_back(std::move(r.adv));
      }
    }

    // Clean, PGD and Square sets on the digital net and on every crossbar,
    // paper order, a fresh deployment per evaluation.
    struct Set {
      const char* name;
      const std::vector<Tensor>& x;
      const std::vector<std::int64_t>& y;
    };
    const Set sets[] = {{"clean", clean_.x, clean_.y},
                        {"pgd", pgd, atk_.y},
                        {"square", square, atk_.y}};
    std::ostringstream o;
    std::vector<double> clean_acc(models_.size(), 0.0);
    std::int64_t images = 0;
    double digital_pgd_acc = 0.0;
    for (const Set& set : sets) {
      const double dacc = eval(set.x, set.y, t, nullptr, &images);
      if (std::strcmp(set.name, "pgd") == 0) digital_pgd_acc = dacc;
      o << set.name << ".digital=" << dacc << ' ';
      for (std::size_t k = 0; k < models_.size(); ++k) {
        std::optional<puma::HwDeployment> dep;
        const std::optional<double> acc = [&]() -> std::optional<double> {
          try {
            deploy(dep, k, t, xs);
            return eval(set.x, set.y, t, &out, &images);
          } catch (const std::exception& e) {
            out.check_failures.push_back(std::string("evaluation threw: ") +
                                         e.what());
            return std::nullopt;
          }
        }();
        if (std::strcmp(set.name, "clean") == 0) clean_acc[k] = acc.value_or(0.0);
        ++out.attempted;
        if (!acc || clean_acc[k] < chance_floor_pct_) ++out.failed;
        o << set.name << '.' << xbar_names_[k] << '=' << acc.value_or(-1.0) << ' ';
      }
    }
    out.run_s = out.wall_s = seconds_since(t0);
    out.cpu_s = cpu_seconds() - c0;
    out.high_ms = am.grad_ms;

    Checksum cs;
    for (const Tensor& a : pgd) cs.add(a);
    for (const Tensor& a : square) cs.add(a);
    o << "adv_checksum=" << cs.h;
    out.outputs = o.str();
    out.e2e["clean_acc_min_pct"] =
        *std::min_element(clean_acc.begin(), clean_acc.end());

    if (t != nullptr) {
      out.spans = t->spans();
      paper_layer_figures(
          out, *xs, images, 1.0 - digital_pgd_acc / 100.0, queries,
          static_cast<double>(sq_success) / static_cast<double>(atk_.x.size()));
    }
    return out;
  }
};

class HilPgd final : public PaperWorkload {
 public:
  explicit HilPgd(std::uint64_t seed)
      : PaperWorkload(seed, {"64x64_100k"}, kHilAttackImages) {}

  PassOut pass(pb::Tracer* t) override {
    PassOut out;
    out.traced = t != nullptr;
    std::optional<pb::XbarStats> xs;
    if (t != nullptr) xs.emplace(*t);
    const std::int64_t t0 = pb::now_ns();
    const double c0 = cpu_seconds();
    std::int64_t images = 0;

    // One deployment: clean accuracy, HIL PGD through it, then the
    // adversarial set on it. The two evaluations are the operations.
    std::optional<puma::HwDeployment> dep;
    deploy(dep, 0, t, xs);
    const double clean = eval(clean_.x, clean_.y, t, &out, &images);
    attack::NetworkAttackModel hil(net());  // non-ideal forward, ideal backward
    pb::TimedAttackModel am(hil, t);
    std::vector<Tensor> adv =
        craft_pgd(am, t, prepared_->task.scaled_eps(2.0f), out);
    const double adv_acc = eval(adv, atk_.y, t, &out, &images);
    dep.reset();
    out.attempted = 2;
    out.failed = clean < chance_floor_pct_ ? 2 : 0;
    out.run_s = out.wall_s = seconds_since(t0);
    out.cpu_s = cpu_seconds() - c0;
    out.high_ms = am.grad_ms;

    Checksum cs;
    for (const Tensor& a : adv) cs.add(a);
    std::ostringstream o;
    o << "clean." << xbar_names_[0] << '=' << clean << " hil_pgd."
      << xbar_names_[0] << '=' << adv_acc << " adv_checksum=" << cs.h;
    out.outputs = o.str();
    out.e2e["clean_acc_min_pct"] = clean;

    if (t != nullptr) {
      out.spans = t->spans();
      paper_layer_figures(out, *xs, images, 1.0 - adv_acc / 100.0, 0, 0.0);
    }
    return out;
  }
};

// ---------------------------------------------------------------- serve
struct SegmentOut {
  std::int64_t ok = 0, failed = 0, shed = 0, timeout = 0;
  std::vector<double> lat_ms;  // Ok replies, from due time
  double lag_ms_max = 0.0;
  double batch_mean = 0.0;
  std::vector<double> queue_ms, form_ms, matmul_ms, epilogue_ms;
  double last_tenth_p50_ms = 0.0;
  std::vector<std::int64_t> labels;  // per request, -1 unless Ok
  std::int64_t label_mismatch = 0, agree_digital = 0;
};

class ServeOpenLoop final : public Workload {
 public:
  explicit ServeOpenLoop(std::uint64_t seed) : seed_(seed) {}

  std::map<std::string, double> setup() override {
    std::map<std::string, double> f;
    server_.reset();
    traced_server_.reset();
    std::int64_t t0 = pb::now_ns();
    model_ = std::make_shared<xbar::FastNoiseModel>(xbar::xbar_32x32_100k());
    f["xbar.model_load_s"] = seconds_since(t0);
    Rng wrng(derive_seed(1, 0));
    w_ = Tensor({kServeClasses, kServeFeatures});
    for (auto& v : w_.data()) v = static_cast<float>(wrng.uniform(-1.0, 1.0));
    t0 = pb::now_ns();
    backend_ = std::make_unique<serve::TiledLinearBackend>(
        w_, model_, puma::HwConfig{}, 1.0f);
    f["puma.deploy_s"] = seconds_since(t0);
    f["puma.deploys"] = 1;
    server_ = std::make_unique<serve::Server>(*backend_, options());
    Tensor x({kServeFeatures});
    server_->classify(x);  // ready: one request served

    // Request pool from the workload seed; the per-request draw below.
    Rng xrng(derive_seed(seed_, 1));
    pool_.clear();
    for (std::int64_t i = 0; i < kServePool; ++i) {
      Tensor v({kServeFeatures});
      for (auto& e : v.data()) e = static_cast<float>(xrng.uniform());
      pool_.push_back(std::move(v));
    }
    ref_labels_.clear();
    digital_labels_.clear();
    return f;
  }

  static serve::ServeOptions options() {
    serve::ServeOptions opt;  // the documented defaults, not the env
    opt.max_batch = 32;
    opt.flush_us = 200;
    opt.queue_capacity = 1024;
    opt.timeout_us = 0;
    return opt;
  }

  PassOut pass(pb::Tracer* t) override {
    reference_labels();
    if (t != nullptr && traced_server_ == nullptr) {
      traced_stats_ = std::make_unique<pb::XbarStats>(*t);
      traced_backend_ = std::make_unique<serve::TiledLinearBackend>(
          w_, std::make_shared<pb::TracedMvmModel>(model_, *traced_stats_),
          puma::HwConfig{}, 1.0f);
      traced_wrap_ = std::make_unique<pb::TracedBackend>(*traced_backend_, *t);
      traced_server_ = std::make_unique<serve::Server>(*traced_wrap_, options());
      traced_server_->classify(Tensor({kServeFeatures}));
    }
    serve::Server& server = t != nullptr ? *traced_server_ : *server_;
    if (t != nullptr) {
      traced_stats_->cov.calls = 0;
      traced_stats_->cov.busy_ns = 0;
      traced_stats_->cols = 0;
    }
    PassOut out;
    out.traced = t != nullptr;
    const double c0 = cpu_seconds();
    std::ostringstream ladder;

    const std::int64_t t0 = pb::now_ns();
    SegmentOut low = run_segment(server, {kLowRps, kLowRequests}, 0, t);
    SegmentOut high =
        run_segment(server, {kHighRps, kHighRequests}, 1, t);
    out.run_s = seconds_since(t0);
    std::int64_t steps = 0;
    auto meets = [&](double rate) {
      const auto n = static_cast<std::int64_t>(rate * kLadderStepSeconds);
      const SegmentOut s = run_segment(server, {rate, n},
                                       2 + static_cast<std::uint64_t>(steps++),
                                       nullptr);
      const pb::Tail p99 = pb::tail_percentile(s.lat_ms, 0.99);
      ladder << rate << ":p99=" << p99.value << "ms,failed=" << s.failed
             << ",lag=" << s.lag_ms_max << "ms ";
      return s.failed == 0 && p99.value <= kLatencyLimitMs &&
             s.lag_ms_max <= kLatencyLimitMs &&
             s.last_tenth_p50_ms <= kLatencyLimitMs;
    };
    double slo = 0.0;
    if (meets(kLadderMinRps)) {
      double lo = kLadderMinRps, hi = kLadderMaxRps;
      for (int k = 0; k < kLadderProbes; ++k) {
        const double mid = 0.5 * (lo + hi);
        (meets(mid) ? lo : hi) = mid;
      }
      slo = lo;
    }
    out.wall_s = seconds_since(t0);
    out.cpu_s = cpu_seconds() - c0;
    out.note = "ladder " + ladder.str();

    out.attempted = kLowRequests + kHighRequests;
    out.failed = low.failed + high.failed;
    for (const SegmentOut* s : {&low, &high}) {
      if (s->label_mismatch != 0)
        out.check_failures.push_back(
            "served label differs from a direct one-request logits_block");
      out.labels.insert(out.labels.end(), s->labels.begin(), s->labels.end());
    }
    // Per-pass percentiles, medians over passes: a host stall of a few ms
    // lands in some passes and not others.
    for (auto [name, seg] : {std::pair<std::string, const SegmentOut*>{"low", &low},
                             {"high", &high}}) {
      const pb::Tail t99 = pb::tail_percentile(seg->lat_ms, 0.99);
      out.e2e["p50_ms_" + name] = pb::median(seg->lat_ms);
      out.e2e["p90_ms_" + name] = pb::tail_percentile(seg->lat_ms, 0.90).value;
      out.e2e["p99_ms_" + name] = t99.value;
      out.e2e["p99_q_" + name] = t99.q;
      out.e2e["p99_n_" + name] = static_cast<double>(t99.n);
    }
    out.e2e["slo_rps"] = slo;
    out.e2e["clean_acc_min_pct"] =
        100.0 * static_cast<double>(low.agree_digital + high.agree_digital) /
        static_cast<double>(std::max<std::int64_t>(1, low.ok + high.ok));
    out.e2e["batch_mean_low"] = low.batch_mean;
    out.e2e["batch_mean_high"] = high.batch_mean;
    out.e2e["lag_ms_max"] = std::max(low.lag_ms_max, high.lag_ms_max);

    if (t != nullptr) {
      for (auto [name, s] : {std::pair<const char*, SegmentOut*>{"low", &low},
                             {"high", &high}}) {
        const std::string p = std::string("serve.") + name + ".";
        out.layer[p + "queue_wait_ms_p50"] = pb::median(s->queue_ms);
        out.layer[p + "queue_wait_ms_p99"] =
            pb::tail_percentile(s->queue_ms, 0.99).value;
        out.layer[p + "batch_form_ms_p50"] = pb::median(s->form_ms);
        out.layer[p + "matmul_ms_p50"] = pb::median(s->matmul_ms);
        out.layer[p + "epilogue_ms_p50"] = pb::median(s->epilogue_ms);
        out.layer[p + "batch_mean"] = s->batch_mean;
        out.layer[p + "shed"] = static_cast<double>(s->shed);
        out.layer[p + "timeout"] = static_cast<double>(s->timeout);
      }
      out.layer["client.lag_ms_max"] = std::max(low.lag_ms_max, high.lag_ms_max);
      // The paper layers do no work here.
      for (const char* k : {"core.accuracy_images", "nn.input_grad_calls",
                            "nn.logits_calls", "attack.pgd_steps",
                            "attack.square_queries"})
        out.layer[k] = 0.0;
      out.layer["xbar.mvm_calls"] = static_cast<double>(traced_stats_->cov.calls.load());
      out.layer["xbar.mvm_cols"] = static_cast<double>(traced_stats_->cols.load());
      out.layer["xbar.mvm_s"] =
          static_cast<double>(traced_stats_->cov.busy_ns.load()) * 1e-9;
      // Direct calls on the backend, one request and a full micro-batch.
      for (auto [name, cols] :
           {std::pair<const char*, std::int64_t>{"puma.logits_block_us_b1", 1},
            {"puma.logits_block_us_bmax", options().max_batch}}) {
        Tensor xb({kServeFeatures, cols});
        for (std::int64_t j = 0; j < cols; ++j)
          for (std::int64_t f = 0; f < kServeFeatures; ++f)
            xb.raw()[f * cols + j] =
                pool_[static_cast<std::size_t>(j)].raw()[f];
        std::vector<double> us;
        for (int r = 0; r < 200; ++r) {
          const std::int64_t s0 = pb::now_ns();
          backend_->logits_block(xb);
          us.push_back(static_cast<double>(pb::now_ns() - s0) * 1e-3);
        }
        out.layer[name] = pb::median(us);
      }
      out.spans = t->spans();
    }
    return out;
  }

 private:
  /// Batch-invariance references: each pool vector served alone through a
  /// direct logits_block; plus the digital (float) label of W x.
  void reference_labels() {
    if (!ref_labels_.empty()) return;
    for (const Tensor& v : pool_) {
      Tensor xb = v;
      xb.reshape({kServeFeatures, 1});
      ref_labels_.push_back(backend_->logits_block(xb).argmax());
      std::int64_t best = 0;
      double best_v = -1e300;
      for (std::int64_t c = 0; c < kServeClasses; ++c) {
        double acc = 0.0;
        for (std::int64_t f = 0; f < kServeFeatures; ++f)
          acc += static_cast<double>(w_.raw()[c * kServeFeatures + f]) *
                 static_cast<double>(v.raw()[f]);
        if (acc > best_v) {
          best_v = acc;
          best = c;
        }
      }
      digital_labels_.push_back(best);
    }
  }

  /// One open-loop stretch from a single client thread (this one): submit
  /// each request at its due time, then collect every reply. Latency runs
  /// from the due time, so a late client or a stalled server shows.
  SegmentOut run_segment(serve::Server& server, const pb::Segment& seg,
                         std::uint64_t index, pb::Tracer* t) {
    const std::vector<std::int64_t> due = pb::poisson_due_ns(seg, seed_, index);
    Rng pick(derive_seed(seed_, 1000 + index));
    const auto n = static_cast<std::size_t>(seg.requests);
    std::vector<std::size_t> which(n);
    for (auto& w : which)
      w = static_cast<std::size_t>(pick.uniform_index(pool_.size()));
    std::vector<serve::Server::Ticket> tickets(n);
    std::vector<std::int64_t> sent(n);
    const std::int64_t start = pb::now_ns() + 1'000'000;
    for (std::size_t i = 0; i < n; ++i) {
      pb::wait_until(start + due[i]);
      sent[i] = pb::now_ns();
      tickets[i] = server.submit(pool_[which[i]]);
    }
    SegmentOut s;
    double batch_sum = 0.0;
    std::vector<double> tail_lat;
    for (std::size_t i = 0; i < n; ++i) {
      const serve::Reply r = tickets[i].get();
      const std::int64_t due_abs = start + due[i];
      const double lag_ms = static_cast<double>(sent[i] - due_abs) * 1e-6;
      s.lag_ms_max = std::max(s.lag_ms_max, lag_ms);
      s.labels.push_back(r.status == serve::ReplyStatus::Ok ? r.label : -1);
      if (r.status != serve::ReplyStatus::Ok) {
        ++s.failed;
        if (r.status == serve::ReplyStatus::Shed) ++s.shed;
        if (r.status == serve::ReplyStatus::Timeout) ++s.timeout;
        continue;
      }
      ++s.ok;
      const double lat = lag_ms + r.total_ns * 1e-6;
      s.lat_ms.push_back(lat);
      if (i >= n - n / 10) tail_lat.push_back(lat);
      batch_sum += static_cast<double>(r.batch_size);
      if (r.label != ref_labels_[which[i]]) ++s.label_mismatch;
      if (r.label == digital_labels_[which[i]]) ++s.agree_digital;
      s.queue_ms.push_back(r.stages.queue_wait_ns * 1e-6);
      s.form_ms.push_back(r.stages.batch_form_ns * 1e-6);
      s.matmul_ms.push_back(r.stages.matmul_ns * 1e-6);
      s.epilogue_ms.push_back(r.stages.epilogue_ns * 1e-6);
      if (t != nullptr) {
        const auto id = static_cast<std::int64_t>(index * 1'000'000 + i);
        const std::int64_t end = sent[i] + static_cast<std::int64_t>(r.total_ns);
        const std::int32_t req =
            t->add("client", "client.request", -1, due_abs, end, id);
        std::int64_t at = sent[i];
        for (auto [name, ns] : {std::pair<const char*, double>{"serve.queue_wait", r.stages.queue_wait_ns},
                                {"serve.batch_form", r.stages.batch_form_ns},
                                {"serve.matmul", r.stages.matmul_ns},
                                {"serve.epilogue", r.stages.epilogue_ns}}) {
          const auto d = static_cast<std::int64_t>(ns);
          t->add("serve", name, req, at, at + d, id);
          at += d;
        }
      }
    }
    s.batch_mean = s.ok > 0 ? batch_sum / static_cast<double>(s.ok) : 0.0;
    s.last_tenth_p50_ms = pb::median(tail_lat);
    return s;
  }

  std::uint64_t seed_;
  std::shared_ptr<const xbar::MvmModel> model_;
  Tensor w_;
  std::unique_ptr<serve::TiledLinearBackend> backend_;
  std::unique_ptr<serve::Server> server_;
  std::unique_ptr<pb::XbarStats> traced_stats_;
  std::unique_ptr<serve::TiledLinearBackend> traced_backend_;
  std::unique_ptr<pb::TracedBackend> traced_wrap_;
  std::unique_ptr<serve::Server> traced_server_;
  std::vector<Tensor> pool_;
  std::vector<std::int64_t> ref_labels_, digital_labels_;
};

// ----------------------------------------------------------------- main
struct Args {
  std::string workload, out, spans;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false, fill = false;
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto val = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error("missing value for " + k);
      return argv[++i];
    };
    if (k == "--workload") a.workload = val();
    else if (k == "--seed") a.seed = std::stoull(val());
    else if (k == "--seconds") a.seconds = std::stod(val());
    else if (k == "--trace") a.trace = val() == "1";
    else if (k == "--out") a.out = val();
    else if (k == "--spans") a.spans = val();
    else if (k == "--fill") a.fill = true;
    else throw std::runtime_error("unknown argument " + k);
  }
  return a;
}

std::unique_ptr<Workload> make_workload(const Args& a) {
  if (a.workload == "table3_quick") return std::make_unique<Table3Quick>(a.seed);
  if (a.workload == "hil_pgd") return std::make_unique<HilPgd>(a.seed);
  if (a.workload == "serve_open_loop")
    return std::make_unique<ServeOpenLoop>(a.seed);
  throw std::runtime_error("unknown workload " + a.workload);
}

int run(const Args& a) {
  std::unique_ptr<Workload> w = make_workload(a);
  Result r;
  if (a.fill) {
    w->setup();
    PassOut p = w->pass(nullptr);
    std::printf("fill %s: %.1f s, %s\n", a.workload.c_str(), p.run_s,
                p.outputs.c_str());
    return 0;
  }

  // Set-up, several times; the last one's state serves the passes.
  std::vector<double> setup_s;
  std::map<std::string, std::vector<double>> setup_layer;
  const std::int64_t setup_start = pb::now_ns();
  for (int k = 0; k < kMaxSetups && (k < kMinSetups ||
                                     seconds_since(setup_start) < kSetupSeconds);
       ++k) {
    const std::int64_t t0 = pb::now_ns();
    for (const auto& [name, v] : w->setup()) setup_layer[name].push_back(v);
    setup_s.push_back(seconds_since(t0));
  }

  // Passes until the time is up: untraced only, or untraced and traced
  // alternating. A pass starts only if one more like the last still fits.
  pb::Tracer tracer;
  std::vector<PassOut> passes;
  const std::int64_t deadline =
      pb::now_ns() + static_cast<std::int64_t>(a.seconds * 1e9);
  for (;;) {
    const bool traced = a.trace && passes.size() % 2 == 1;
    if (traced) tracer.clear();
    passes.push_back(w->pass(traced ? &tracer : nullptr));
    const auto last_ns = static_cast<std::int64_t>(passes.back().wall_s * 1e9);
    const bool need_traced = a.trace && passes.size() < 2;
    if (!need_traced && pb::now_ns() + last_ns > deadline) break;
  }

  // Checks: every pass produced the same outputs; served labels agree
  // wherever both passes were served.
  const PassOut& first = passes.front();
  for (const PassOut& p : passes) {
    r.attempted += p.attempted;
    r.failed += p.failed;
    for (const std::string& f : p.check_failures) r.check(false, f);
    const std::string kind = p.traced ? "traced" : "untraced";
    r.check(p.outputs == first.outputs,
            kind + " pass outputs differ from the first pass: '" + p.outputs +
                "' vs '" + first.outputs + "'");
    bool same = p.labels.size() == first.labels.size();
    for (std::size_t i = 0; same && i < p.labels.size(); ++i)
      same = p.labels[i] < 0 || first.labels[i] < 0 ||
             p.labels[i] == first.labels[i];
    r.check(same, kind + " pass served other labels than the first pass");
  }
  if (!first.outputs.empty()) r.notes.push_back("outputs: " + first.outputs);
  if (!first.labels.empty()) {
    Checksum cs;
    for (std::int64_t l : first.labels) cs.add(l);
    r.notes.push_back("labels_checksum=" + std::to_string(cs.h) +
                      " (first pass; -1 marks a failed request)");
  }

  std::vector<const PassOut*> plain, traced;
  for (const PassOut& p : passes) (p.traced ? traced : plain).push_back(&p);
  auto med = [](const std::vector<const PassOut*>& ps,
                const std::function<double(const PassOut&)>& f) {
    std::vector<double> v;
    for (const PassOut* p : ps) v.push_back(f(*p));
    return pb::median(v);
  };
  for (const PassOut* p : plain)
    if (!p->note.empty()) r.notes.push_back(p->note);

  // End-to-end figures, from the untraced passes only: medians over
  // passes; the paper workloads' latency samples are pooled instead.
  r.set("setup_s", pb::median(setup_s));
  r.set("run_s", med(plain, [](const PassOut& p) { return p.run_s; }));
  r.set("peak_rss_mb", peak_rss_mb());
  r.set("failed_frac", static_cast<double>(r.failed) /
                           static_cast<double>(std::max<std::int64_t>(1, r.attempted)));
  r.set("passes", static_cast<double>(passes.size()));
  for (const auto& [k, v] : first.e2e)
    r.set(k, med(plain, [&k](const PassOut& p) { return p.e2e.at(k); }));
  if (first.e2e.count("slo_rps") == 0) {
    // Paper workloads: a pass has too few samples for a p99, so they are
    // pooled over the run's passes.
    std::vector<double> low, high;
    for (const PassOut* p : plain) {
      low.insert(low.end(), p->low_ms.begin(), p->low_ms.end());
      high.insert(high.end(), p->high_ms.begin(), p->high_ms.end());
    }
    for (auto [name, v] : {std::pair<std::string, std::vector<double>*>{"low", &low},
                           {"high", &high}}) {
      const pb::Tail t99 = pb::tail_percentile(*v, 0.99);
      r.set("p50_ms_" + name, pb::median(*v));
      r.set("p90_ms_" + name, pb::tail_percentile(*v, 0.90).value);
      r.set("p99_ms_" + name, t99.value);
      r.set("p99_q_" + name, t99.q);
      r.set("p99_n_" + name, static_cast<double>(t99.n));
    }
    // Deployed one-image forwards per second.
    double sum_ms = 0;
    for (double v : low) sum_ms += v;
    r.set("slo_rps", 1e3 * static_cast<double>(low.size()) / sum_ms);
  }
  const double plain_lag = med(plain, [](const PassOut& p) {
    return p.e2e.count("lag_ms_max") != 0 ? p.e2e.at("lag_ms_max") : 0.0;
  });
  if (plain_lag > kLatencyLimitMs)
    r.notes.push_back("INVALID: the client lagged its schedule by more than "
                      "the latency limit");

  // Per-layer figures, from the traced passes.
  const std::vector<const PassOut*>& lp = a.trace ? traced : plain;
  const double cpu = med(lp, [](const PassOut& p) { return p.cpu_s; });
  r.set("proc.cpu_s", cpu);
  r.set("proc.busy_cores",
        cpu / med(lp, [](const PassOut& p) { return p.wall_s; }));
  if (a.trace) {
    for (const auto& [name, v] : setup_layer) r.set(name, pb::median(v));
    for (const auto& [k, v] : traced.front()->layer)
      r.set(k, med(traced, [&k](const PassOut& p) { return p.layer.at(k); }));
    // Traced over untraced run_s; serve runs an open loop whose wall time
    // the schedule fixes, so there it is the median latency at the high
    // rate.
    const bool open_loop = first.e2e.count("slo_rps") != 0;
    auto cost = [open_loop](const PassOut& p) {
      return open_loop ? p.e2e.at("p50_ms_high") : p.run_s;
    };
    r.set("trace.overhead_frac", med(traced, cost) / med(plain, cost) - 1.0);
    // Self time per layer, median over traced passes.
    std::map<std::string, std::vector<double>> self;
    for (const PassOut* p : traced)
      for (const auto& [layer, s] : pb::self_seconds_by_layer(p->spans))
        self[layer].push_back(s);
    for (const auto& [layer, v] : self)
      r.set("trace.self_s." + layer, pb::median(v));
    if (!a.spans.empty()) write_spans(traced, a.spans);
  }
  write_result(r, a.out);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse(argc, argv);
    if (a.out.empty() && !a.fill) throw std::runtime_error("--out is required");
    return run(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "paper_bench: %s\n", e.what());
    return 2;
  }
}
