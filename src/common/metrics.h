// Process-wide metrics registry: named counters, gauges, and fixed-bucket
// histograms.
//
// The registry is the machine-readable counterpart of NVM_LOG: every
// paper-meaningful quantity that used to evaporate into stdout text
// (circuit solves, Gauss-Seidel sweeps, surrogate predictions, black-box
// attack queries, cache hits) is tallied here and exported into the JSON
// run manifest (core/report.h), so runs can be compared across configs,
// attacks, and PRs.
//
// Naming scheme: "layer/component/name", lowercase, '/'-separated — e.g.
// "solver/sweeps", "attack/square/queries", "xbar/geniex/fallbacks". See
// DESIGN.md §10 for the full table.
//
// Concurrency: all mutation paths are relaxed atomics — exact under the
// thread pool (monotonic tallies need no ordering). Counters are sharded:
// each thread adds to its own cache-line-padded slot, so hot paths that
// bump the same counter from several threads (every nvm::simd kernel call
// tallies two) never contend on one cache line. Registration
// (find-or-create by name) takes a mutex, so call sites cache the returned
// reference in a function-local static:
//
//   static metrics::Counter& solves = metrics::counter("solver/solves");
//   solves.add();
//
// Returned references stay valid for the process lifetime (the registry is
// intentionally leaked so worker threads draining at exit never touch a
// destroyed metric).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace nvm::metrics {

/// Monotonic event tally, sharded across threads. add() touches only the
/// calling thread's shard (one uncontended relaxed RMW); value() sums the
/// shards. Threads map onto shards round-robin in order of their first
/// add, so with more than kShards threads some share a shard — still
/// exact, just no longer contention-free. Memory: kShards cache lines
/// (1 KiB) per counter.
class Counter {
 public:
  static constexpr std::size_t kShards = 16;

  /// Increments by `n`. Returns nothing: a running total would need a
  /// cross-shard sum per call; callers that throttle on the total (health
  /// warnings) read value() after adding.
  void add(std::uint64_t n = 1) {
    shards_[shard_index()].v.fetch_add(n, std::memory_order_relaxed);
  }
  /// Sum over the shards. Exact once concurrent adders have finished;
  /// while they run, it includes each completed add() exactly once.
  std::uint64_t value() const;
  /// Tests only; experiments should diff snapshots instead.
  void reset();

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> v{0};
  };
  /// The calling thread's shard, fixed at its first call.
  static std::size_t shard_index() {
    thread_local const std::size_t index = next_shard_index();
    return index;
  }
  static std::size_t next_shard_index();

  Shard shards_[kShards];
};

/// Last-write-wins scalar (fit quality, configured sizes, wall times).
class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  /// Relaxed atomic increment (negative deltas decrement): lets several
  /// writers maintain one gauge additively — e.g. the per-shard queue
  /// depth summed across every per-model server resident on the shard —
  /// where racing set(value()+d) calls would lose updates.
  void add(double delta) { v_.fetch_add(delta, std::memory_order_relaxed); }
  double value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Fixed-bucket histogram. Bucket i counts observations <= bounds[i]; one
/// implicit overflow bucket counts the rest. Also tracks count and sum.
/// Bucket counts and (count, sum) are individually exact but not updated
/// atomically as a group; snapshots taken while observers run may be
/// momentarily inconsistent by one in-flight observation.
class Histogram {
 public:
  /// `bounds` must be non-empty and strictly increasing.
  explicit Histogram(std::vector<double> bounds);

  void observe(double v);
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  const std::vector<double>& bounds() const { return bounds_; }
  /// Per-bucket (non-cumulative) counts; size() == bounds().size() + 1.
  std::vector<std::uint64_t> bucket_counts() const;
  /// Tests only.
  void reset();

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<std::uint64_t>> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Default histogram bounds: nanosecond-scale durations, decade spaced
/// (1us .. 10s).
std::vector<double> duration_ns_bounds();

/// Find-or-create by name. The returned reference is valid for the process
/// lifetime. Requesting an existing name as a different metric kind (or a
/// histogram with different bounds) throws CheckError.
Counter& counter(const std::string& name);
Gauge& gauge(const std::string& name);
/// Empty `bounds` selects duration_ns_bounds().
Histogram& histogram(const std::string& name, std::vector<double> bounds = {});

enum class Kind { Counter, Gauge, Histogram };

/// Folds arbitrary text (model names, tenant ids) into a legal metric name
/// component: uppercase is lowered, every other character outside
/// [a-z0-9_.] becomes '_' ('/' included — a component must not introduce
/// hierarchy), and an empty input becomes "_". "SCIFAR10-v2" -> "scifar10_v2".
std::string sanitize_name_component(const std::string& text);

/// Prefix-scoped view of the registry for families of series that share a
/// hierarchy level ("serve/shard3", "fleet/cohort/west"). Two jobs:
///   * name construction happens once per series, not per event — each
///     counter()/gauge()/histogram() call memoizes the resolved reference
///     in a per-scope cache, so hot paths never re-format "prefix/name";
///   * duplicate registration is harmless by construction — two scopes
///     with the same prefix (two shards loading the same model, a restart
///     re-registering its series) resolve to the SAME process-wide
///     metrics, and re-requesting a name through any path aliases instead
///     of throwing (kind/bounds mismatches still throw, as for the free
///     functions).
/// Cache lookups take a per-scope mutex; callers on hot paths should hoist
/// the returned reference out of their loops (it lives forever, like every
/// registry reference).
class Scope {
 public:
  /// `prefix` must itself be a valid metric name (checked on first use).
  explicit Scope(std::string prefix);

  const std::string& prefix() const { return prefix_; }
  /// "prefix/leaf" — the registry-visible name (e.g. for telemetry::track).
  std::string full_name(const std::string& leaf) const;

  Counter& counter(const std::string& leaf);
  Gauge& gauge(const std::string& leaf);
  /// Empty `bounds` selects duration_ns_bounds(). Bounds only matter on
  /// the process-wide first registration of the full name.
  Histogram& histogram(const std::string& leaf,
                       std::vector<double> bounds = {});

 private:
  struct Cache;
  std::string prefix_;
  std::shared_ptr<Cache> cache_;  // shared_ptr: scopes stay copyable
};

/// One exported metric value (see snapshot()).
struct MetricValue {
  std::string name;
  Kind kind = Kind::Counter;
  double value = 0.0;        ///< counter total (as double) or gauge value
  std::uint64_t count = 0;   ///< histogram observation count
  double sum = 0.0;          ///< histogram observation sum
  std::vector<double> bounds;
  std::vector<std::uint64_t> buckets;
};

/// Estimated q-quantile (q in [0, 1]) of a histogram MetricValue: linear
/// interpolation inside the bucket that holds the target rank, with bucket
/// i spanning (bounds[i-1], bounds[i]] and the first bucket anchored at 0.
/// Observations landing in the overflow bucket clamp to the last finite
/// bucket bound (Prometheus histogram_quantile semantics) — the histogram
/// cannot see past its last edge, so it never extrapolates. Returns NaN
/// for empty histograms and non-histogram values (exported as JSON null).
double quantile(const MetricValue& m, double q);

/// Point-in-time copy of every registered metric, sorted by name.
std::vector<MetricValue> snapshot();

/// Per-metric difference of `now` against `base`: counters and histograms
/// subtract (monotonic fields), gauges pass through `now`'s value. Metrics
/// absent from `base` (registered later) keep their full value.
std::vector<MetricValue> delta(const std::vector<MetricValue>& now,
                               const std::vector<MetricValue>& base);

/// Resets every registered metric to zero (tests only).
void reset_all_for_tests();

}  // namespace nvm::metrics
