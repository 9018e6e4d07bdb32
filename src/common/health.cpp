#include "common/health.h"

#include <array>
#include <sstream>

#include "common/metrics.h"

namespace nvm {

namespace {

constexpr std::array<const char*, kHealthCounterCount> kMetricNames = {
    "solver/nonconverged",
    "xbar/nonfinite_outputs",
    "xbar/geniex/fallbacks",
    "cache/file/corrupt",
};

// The four counters live in the process-wide metrics registry; this array
// just caches the registered references so bump() skips the registry
// lookup.
std::array<metrics::Counter*, kHealthCounterCount>& counters() {
  static std::array<metrics::Counter*, kHealthCounterCount> c = [] {
    std::array<metrics::Counter*, kHealthCounterCount> a{};
    for (int i = 0; i < kHealthCounterCount; ++i)
      a[static_cast<std::size_t>(i)] = &metrics::counter(kMetricNames[static_cast<std::size_t>(i)]);
    return a;
  }();
  return c;
}

}  // namespace

const char* health_metric_name(HealthCounter c) {
  return kMetricNames[static_cast<std::size_t>(c)];
}

std::uint64_t bump(HealthCounter c, std::uint64_t n) {
  metrics::Counter& counter = *counters()[static_cast<std::size_t>(c)];
  counter.add(n);
  return counter.value();
}

std::uint64_t health_value(HealthCounter c) {
  return counters()[static_cast<std::size_t>(c)]->value();
}

HealthSnapshot health_snapshot() {
  HealthSnapshot s;
  s.solver_nonconverged = health_value(HealthCounter::SolverNonConverged);
  s.nonfinite_outputs = health_value(HealthCounter::NonFiniteOutput);
  s.surrogate_fallbacks = health_value(HealthCounter::SurrogateFallback);
  s.cache_corrupt = health_value(HealthCounter::CacheCorrupt);
  return s;
}

HealthSnapshot HealthSnapshot::delta_since(const HealthSnapshot& since) const {
  HealthSnapshot d;
  d.solver_nonconverged = solver_nonconverged - since.solver_nonconverged;
  d.nonfinite_outputs = nonfinite_outputs - since.nonfinite_outputs;
  d.surrogate_fallbacks = surrogate_fallbacks - since.surrogate_fallbacks;
  d.cache_corrupt = cache_corrupt - since.cache_corrupt;
  return d;
}

bool HealthSnapshot::all_zero() const {
  return solver_nonconverged == 0 && nonfinite_outputs == 0 &&
         surrogate_fallbacks == 0 && cache_corrupt == 0;
}

std::string HealthSnapshot::summary() const {
  std::ostringstream os;
  os << "solver_nc=" << solver_nonconverged
     << " nonfinite=" << nonfinite_outputs
     << " fallback=" << surrogate_fallbacks << " cache=" << cache_corrupt;
  return os.str();
}

void reset_health_counters() {
  for (metrics::Counter* c : counters()) c->reset();
}

}  // namespace nvm
