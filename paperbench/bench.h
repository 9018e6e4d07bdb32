// Measurement plumbing of the paper-workload benchmark: an in-memory span
// recorder with per-layer self time, the tail-percentile rule, and the
// open-loop arrival schedule. Everything here is benchmark-side; the
// program under test is reached only through its public headers.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace paperbench {

/// Monotonic nanoseconds since the first call in this process.
std::int64_t now_ns();

/// One recorded interval. `layer` and `name` point at string literals.
struct Span {
  std::int32_t id = -1;
  std::int32_t parent = -1;  ///< -1: a root span
  const char* layer = "";
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = -1;  ///< -1 while open
  std::int64_t item = -1;    ///< image or request id, -1 when none
};

/// In-memory span recorder. Spans opened on a thread nest under that
/// thread's innermost open span; spans recorded from threads that opened
/// none (thread-pool workers) nest under the innermost span opened last on
/// any thread (the "ambient" span: the benchmark drives each workload from
/// one thread at a time). Spans are written out only when the run ends.
class Tracer {
 public:
  std::int32_t open(const char* layer, const char* name, std::int64_t item);
  void close(std::int32_t id);
  /// Records a finished span with an explicit parent.
  std::int32_t add(const char* layer, const char* name, std::int32_t parent,
                   std::int64_t start_ns, std::int64_t end_ns,
                   std::int64_t item);
  /// Innermost open span for a caller that opened none itself.
  std::int32_t ambient() const { return ambient_.load(); }
  std::int64_t item_of(std::int32_t id) const;

  std::vector<Span> spans() const;
  void clear();

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::atomic<std::int32_t> ambient_{-1};
};

/// RAII span; inert when the tracer is null.
class Scope {
 public:
  Scope(Tracer* t, const char* layer, const char* name, std::int64_t item = -1)
      : t_(t), id_(t != nullptr ? t->open(layer, name, item) : -1) {}
  ~Scope() {
    if (t_ != nullptr) t_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* t_;
  std::int32_t id_;
};

/// Tracks the union of concurrently running calls (one layer's calls from
/// many pool threads) and records each maximal busy interval as one span
/// under the ambient span. Also counts calls and their summed duration.
class Coverage {
 public:
  Coverage(Tracer& t, const char* layer, const char* name)
      : t_(t), layer_(layer), name_(name) {}
  std::int64_t enter();
  void exit(std::int64_t entered_ns);

  std::atomic<std::int64_t> calls{0};
  std::atomic<std::int64_t> busy_ns{0};

 private:
  Tracer& t_;
  const char* layer_;
  const char* name_;
  std::mutex mu_;
  std::int32_t active_ = 0;
  std::int64_t burst_start_ = 0;
};

/// Self time per layer: each span's duration minus the part of its
/// interval covered by the union of its children (clipped to the span),
/// summed over the layer's spans. Seconds, keyed by layer.
std::vector<std::pair<std::string, double>> self_seconds_by_layer(
    const std::vector<Span>& spans);

/// A tail percentile under the reporting rule: the requested quantile when
/// at least 10 samples lie beyond it, else the highest quantile that
/// leaves 10 beyond (nearest-rank). `n` is the sample count.
struct Tail {
  double q = 0.0;
  double value = 0.0;
  std::int64_t n = 0;
};
Tail tail_percentile(std::vector<double> samples, double q);
/// Nearest-rank quantile (no tail rule): the median for q = 0.5.
double quantile(std::vector<double> samples, double q);
double median(std::vector<double> samples);

/// One constant-rate stretch of the open-loop schedule.
struct Segment {
  double rate_rps = 0.0;
  std::int64_t requests = 0;
};

/// Due times (ns after the segment's start) of a seeded Poisson stream:
/// exponential gaps at `rate_rps`, a pure function of (seed, segment
/// index, rate, count).
std::vector<std::int64_t> poisson_due_ns(const Segment& seg,
                                         std::uint64_t seed,
                                         std::uint64_t segment_index);

/// Busy-waits until `deadline_ns` (now_ns clock).
void wait_until(std::int64_t deadline_ns);

}  // namespace paperbench
