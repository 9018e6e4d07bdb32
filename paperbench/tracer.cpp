#include <algorithm>
#include <cmath>
#include <map>

#include "bench.h"

namespace paperbench {

namespace {
// Open spans of the calling thread, innermost last.
thread_local std::vector<std::int32_t> t_open;
}  // namespace

std::int64_t now_ns() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

std::int32_t Tracer::open(const char* layer, const char* name,
                          std::int64_t item) {
  const std::int32_t parent = t_open.empty() ? ambient_.load() : t_open.back();
  Span s;
  s.parent = parent;
  s.layer = layer;
  s.name = name;
  s.item = item;
  {
    std::lock_guard<std::mutex> lock(mu_);
    s.id = static_cast<std::int32_t>(spans_.size());
    s.start_ns = now_ns();
    spans_.push_back(s);
  }
  t_open.push_back(s.id);
  ambient_.store(s.id);
  return s.id;
}

void Tracer::close(std::int32_t id) {
  const std::int64_t end = now_ns();
  std::int32_t parent = -1;
  {
    std::lock_guard<std::mutex> lock(mu_);
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end_ns = end;
    parent = s.parent;
  }
  if (!t_open.empty() && t_open.back() == id) t_open.pop_back();
  ambient_.store(parent);
}

std::int32_t Tracer::add(const char* layer, const char* name,
                         std::int32_t parent, std::int64_t start_ns,
                         std::int64_t end_ns, std::int64_t item) {
  std::lock_guard<std::mutex> lock(mu_);
  Span s;
  s.id = static_cast<std::int32_t>(spans_.size());
  s.parent = parent;
  s.layer = layer;
  s.name = name;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  s.item = item;
  spans_.push_back(s);
  return s.id;
}

std::int64_t Tracer::item_of(std::int32_t id) const {
  if (id < 0) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  return spans_[static_cast<std::size_t>(id)].item;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.clear();
  ambient_.store(-1);
}

std::int64_t Coverage::enter() {
  const std::int64_t t = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  if (active_++ == 0) burst_start_ = t;
  return t;
}

void Coverage::exit(std::int64_t entered_ns) {
  const std::int64_t t = now_ns();
  calls.fetch_add(1, std::memory_order_relaxed);
  busy_ns.fetch_add(t - entered_ns, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  if (--active_ == 0) {
    const std::int32_t parent = t_.ambient();
    t_.add(layer_, name_, parent, burst_start_, t, t_.item_of(parent));
  }
}

std::vector<std::pair<std::string, double>> self_seconds_by_layer(
    const std::vector<Span>& spans) {
  std::map<std::int32_t, std::vector<std::pair<std::int64_t, std::int64_t>>>
      children;
  for (const Span& s : spans)
    if (s.parent >= 0 && s.end_ns >= 0)
      children[s.parent].push_back({s.start_ns, s.end_ns});
  std::map<std::string, double> self_ns;
  for (const Span& s : spans) {
    if (s.end_ns < 0) continue;
    std::int64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      auto iv = it->second;
      std::sort(iv.begin(), iv.end());
      std::int64_t cur_lo = 0, cur_hi = -1;
      for (auto [lo, hi] : iv) {
        lo = std::max(lo, s.start_ns);
        hi = std::min(hi, s.end_ns);
        if (hi <= lo) continue;
        if (lo > cur_hi) {
          if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
          cur_lo = lo;
          cur_hi = hi;
        } else {
          cur_hi = std::max(cur_hi, hi);
        }
      }
      if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    }
    self_ns[s.layer] += static_cast<double>(s.end_ns - s.start_ns - covered);
  }
  std::vector<std::pair<std::string, double>> out;
  for (const auto& [layer, ns] : self_ns) out.push_back({layer, ns * 1e-9});
  return out;
}

namespace {
double nearest_rank(std::vector<double>& sorted, double q) {
  const auto n = static_cast<double>(sorted.size());
  auto rank = static_cast<std::int64_t>(std::ceil(q * n - 1e-9));
  rank = std::clamp<std::int64_t>(rank, 1,
                                  static_cast<std::int64_t>(sorted.size()));
  return sorted[static_cast<std::size_t>(rank - 1)];
}
}  // namespace

Tail tail_percentile(std::vector<double> samples, double q) {
  Tail t;
  t.n = static_cast<std::int64_t>(samples.size());
  if (samples.empty()) return t;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(t.n);
  // Nearest rank ceil(q n) leaves n - ceil(q n) samples beyond it.
  t.q = std::min(q, std::max(0.0, (n - 10.0) / n));
  t.value = nearest_rank(samples, t.q);
  return t;
}

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  return nearest_rank(samples, q);
}

double median(std::vector<double> samples) { return quantile(std::move(samples), 0.5); }

}  // namespace paperbench
