#include "common/metrics.h"

#include <algorithm>
#include <limits>
#include <map>
#include <memory>
#include <mutex>

#include "common/check.h"

namespace nvm::metrics {

namespace {

struct Entry {
  Kind kind;
  std::unique_ptr<Counter> counter;
  std::unique_ptr<Gauge> gauge;
  std::unique_ptr<Histogram> histogram;
};

struct Registry {
  std::mutex mu;
  std::map<std::string, Entry> entries;
};

// Leaked on purpose: metrics may be bumped by pool workers draining after
// main() returns, so the registry must outlive every static destructor.
Registry& registry() {
  static Registry* r = new Registry;
  return *r;
}

void check_name(const std::string& name) {
  NVM_CHECK(!name.empty(), "metric name must not be empty");
  for (char c : name)
    NVM_CHECK((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '/' ||
                  c == '_' || c == '.',
              "metric name '" << name
                              << "' must be lowercase layer/component/name");
}

Entry& find_or_create(const std::string& name, Kind kind,
                      std::vector<double> bounds) {
  check_name(name);
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  auto it = reg.entries.find(name);
  if (it == reg.entries.end()) {
    Entry e;
    e.kind = kind;
    switch (kind) {
      case Kind::Counter: e.counter = std::make_unique<Counter>(); break;
      case Kind::Gauge: e.gauge = std::make_unique<Gauge>(); break;
      case Kind::Histogram:
        e.histogram = std::make_unique<Histogram>(std::move(bounds));
        break;
    }
    it = reg.entries.emplace(name, std::move(e)).first;
  }
  NVM_CHECK(it->second.kind == kind,
            "metric '" << name << "' already registered as a different kind");
  if (kind == Kind::Histogram && !bounds.empty())
    NVM_CHECK(it->second.histogram->bounds() == bounds,
              "histogram '" << name << "' re-registered with other bounds");
  return it->second;
}

}  // namespace

std::size_t Counter::next_shard_index() {
  static std::atomic<std::size_t> next{0};
  return next.fetch_add(1, std::memory_order_relaxed) % kShards;
}

std::uint64_t Counter::value() const {
  std::uint64_t total = 0;
  for (const Shard& s : shards_) total += s.v.load(std::memory_order_relaxed);
  return total;
}

void Counter::reset() {
  for (Shard& s : shards_) s.v.store(0, std::memory_order_relaxed);
}

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)),
      buckets_(bounds_.size() + 1) {
  NVM_CHECK(!bounds_.empty(), "histogram needs at least one bucket bound");
  for (std::size_t i = 1; i < bounds_.size(); ++i)
    NVM_CHECK(bounds_[i - 1] < bounds_[i],
              "histogram bounds must be strictly increasing");
}

void Histogram::observe(double v) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const auto idx = static_cast<std::size_t>(it - bounds_.begin());
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> out(buckets_.size());
  for (std::size_t i = 0; i < buckets_.size(); ++i)
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  return out;
}

void Histogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

std::vector<double> duration_ns_bounds() {
  return {1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10};
}

Counter& counter(const std::string& name) {
  return *find_or_create(name, Kind::Counter, {}).counter;
}

Gauge& gauge(const std::string& name) {
  return *find_or_create(name, Kind::Gauge, {}).gauge;
}

Histogram& histogram(const std::string& name, std::vector<double> bounds) {
  if (bounds.empty()) bounds = duration_ns_bounds();
  return *find_or_create(name, Kind::Histogram, std::move(bounds)).histogram;
}

std::string sanitize_name_component(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
    const bool legal = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                       c == '_' || c == '.';
    out.push_back(legal ? c : '_');
  }
  if (out.empty()) out = "_";
  return out;
}

struct Scope::Cache {
  std::mutex mu;
  std::map<std::string, Counter*> counters;
  std::map<std::string, Gauge*> gauges;
  std::map<std::string, Histogram*> histograms;
};

Scope::Scope(std::string prefix)
    : prefix_(std::move(prefix)), cache_(std::make_shared<Cache>()) {
  check_name(prefix_);
}

std::string Scope::full_name(const std::string& leaf) const {
  return prefix_ + "/" + leaf;
}

Counter& Scope::counter(const std::string& leaf) {
  std::lock_guard<std::mutex> lock(cache_->mu);
  Counter*& c = cache_->counters[leaf];
  if (c == nullptr) c = &metrics::counter(full_name(leaf));
  return *c;
}

Gauge& Scope::gauge(const std::string& leaf) {
  std::lock_guard<std::mutex> lock(cache_->mu);
  Gauge*& g = cache_->gauges[leaf];
  if (g == nullptr) g = &metrics::gauge(full_name(leaf));
  return *g;
}

Histogram& Scope::histogram(const std::string& leaf,
                            std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(cache_->mu);
  Histogram*& h = cache_->histograms[leaf];
  if (h == nullptr) h = &metrics::histogram(full_name(leaf), std::move(bounds));
  return *h;
}

double quantile(const MetricValue& m, double q) {
  // An empty histogram (or a non-histogram) has no quantiles: NaN, not a
  // fabricated 0, so consumers can tell "no observations" from "all
  // observations were instant" (JSON export turns NaN into null).
  if (m.kind != Kind::Histogram || m.count == 0 || m.bounds.empty())
    return std::numeric_limits<double>::quiet_NaN();
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(m.count);
  double cum = 0.0;
  for (std::size_t i = 0; i < m.buckets.size(); ++i) {
    const double c = static_cast<double>(m.buckets[i]);
    if (c > 0.0 && cum + c >= rank) {
      if (i == m.bounds.size()) return m.bounds.back();  // overflow bucket
      const double lo = (i == 0) ? 0.0 : m.bounds[i - 1];
      return lo + (m.bounds[i] - lo) * ((rank - cum) / c);
    }
    cum += c;
  }
  return m.bounds.back();
}

std::vector<MetricValue> snapshot() {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  std::vector<MetricValue> out;
  out.reserve(reg.entries.size());
  for (const auto& [name, e] : reg.entries) {
    MetricValue v;
    v.name = name;
    v.kind = e.kind;
    switch (e.kind) {
      case Kind::Counter:
        v.value = static_cast<double>(e.counter->value());
        break;
      case Kind::Gauge:
        v.value = e.gauge->value();
        break;
      case Kind::Histogram:
        v.count = e.histogram->count();
        v.sum = e.histogram->sum();
        v.bounds = e.histogram->bounds();
        v.buckets = e.histogram->bucket_counts();
        break;
    }
    out.push_back(std::move(v));
  }
  return out;  // std::map iteration is already name-sorted
}

std::vector<MetricValue> delta(const std::vector<MetricValue>& now,
                               const std::vector<MetricValue>& base) {
  std::map<std::string, const MetricValue*> by_name;
  for (const MetricValue& b : base) by_name[b.name] = &b;
  std::vector<MetricValue> out;
  out.reserve(now.size());
  for (const MetricValue& n : now) {
    MetricValue d = n;
    auto it = by_name.find(n.name);
    if (it != by_name.end() && it->second->kind == n.kind) {
      const MetricValue& b = *it->second;
      switch (n.kind) {
        case Kind::Counter:
          d.value = n.value - b.value;
          break;
        case Kind::Gauge:
          break;  // last-write-wins: report the current value
        case Kind::Histogram:
          d.count = n.count - b.count;
          d.sum = n.sum - b.sum;
          if (b.buckets.size() == n.buckets.size())
            for (std::size_t i = 0; i < d.buckets.size(); ++i)
              d.buckets[i] = n.buckets[i] - b.buckets[i];
          break;
      }
    }
    out.push_back(std::move(d));
  }
  return out;
}

void reset_all_for_tests() {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  for (auto& [name, e] : reg.entries) {
    switch (e.kind) {
      case Kind::Counter: e.counter->reset(); break;
      case Kind::Gauge: e.gauge->reset(); break;
      case Kind::Histogram: e.histogram->reset(); break;
    }
  }
}

}  // namespace nvm::metrics
