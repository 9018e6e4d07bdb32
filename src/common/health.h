// Process-wide health counters for the failure-handling layer.
//
// The analog stack is allowed to degrade but never to lie silently: a
// circuit solve that fails to converge, a NaN scrubbed from a crossbar
// output, a surrogate prediction replaced by its fallback model, or a
// corrupted cache entry each increments a counter here (and emits a
// throttled warning). Experiments snapshot the counters around a run and
// report the deltas next to accuracy numbers, so "the result came back"
// and "the result is trustworthy" stay distinguishable.
//
// Each health counter IS a metrics::Counter registered under a canonical
// name (see health_metric_name), so health_snapshot() and the run-manifest
// exporter report from one source of truth: bump() is the single increment
// path, and both views read the same sharded counter.
#pragma once

#include <cstdint>
#include <string>

namespace nvm {

enum class HealthCounter : int {
  SolverNonConverged = 0,  ///< nodal solve hit max_sweeps or diverged
  NonFiniteOutput = 1,     ///< NaN/Inf scrubbed from a crossbar output
  SurrogateFallback = 2,   ///< GENIEx prediction replaced by fallback model
  CacheCorrupt = 3,        ///< cache entry failed its checksum / truncated
};
inline constexpr int kHealthCounterCount = 4;

/// Canonical metric name backing counter `c` (e.g. "solver/nonconverged").
const char* health_metric_name(HealthCounter c);

/// Increments `c` by `n`; returns the counter's value read just after
/// (it may include other threads' concurrent bumps — exact enough for the
/// log throttle below).
std::uint64_t bump(HealthCounter c, std::uint64_t n = 1);

/// Current value of one counter.
std::uint64_t health_value(HealthCounter c);

/// Point-in-time copy of every counter.
struct HealthSnapshot {
  std::uint64_t solver_nonconverged = 0;
  std::uint64_t nonfinite_outputs = 0;
  std::uint64_t surrogate_fallbacks = 0;
  std::uint64_t cache_corrupt = 0;

  /// Per-field difference (this - since); fields are monotonic.
  HealthSnapshot delta_since(const HealthSnapshot& since) const;
  bool all_zero() const;
  /// "solver_nc=2 nonfinite=0 fallback=5 cache=0" for report lines.
  std::string summary() const;
};

HealthSnapshot health_snapshot();

/// Resets every counter to zero (tests only; experiments should use
/// snapshot deltas so concurrent runs don't clobber each other).
void reset_health_counters();

/// Event-log throttle: warn on the first few occurrences of a failure
/// class, then once per 1024 so a pathological run cannot flood stderr.
/// `n` is the counter value bump() returned.
inline bool health_should_log(std::uint64_t n) {
  return n <= 5 || (n & 1023) == 0;
}

}  // namespace nvm
