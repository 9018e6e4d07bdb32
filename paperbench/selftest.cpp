// Self-test of the benchmark's own arithmetic: the open-loop arrival
// schedule, the tail-percentile rule and per-layer self time. Exits
// nonzero when any check fails; paperbench/run.py runs it before every
// benchmark run.
#include <cmath>
#include <cstdio>

#include "bench.h"

namespace pb = paperbench;

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

bool near(double a, double b, double tol) { return std::fabs(a - b) <= tol; }

void arrival_schedule() {
  const pb::Segment seg{20000.0, 4000};
  const auto a = pb::poisson_due_ns(seg, 42, 1);
  const auto b = pb::poisson_due_ns(seg, 42, 1);
  const auto c = pb::poisson_due_ns(seg, 43, 1);
  const auto d = pb::poisson_due_ns(seg, 42, 2);
  expect(a.size() == 4000, "one due time per request");
  expect(a == b, "same seed and segment give the same schedule");
  expect(a != c, "another seed gives another schedule");
  expect(a != d, "another segment gives another schedule");
  bool sorted = true;
  for (std::size_t i = 1; i < a.size(); ++i) sorted &= a[i] >= a[i - 1];
  expect(sorted, "due times never decrease");
  // 4000 exponential gaps: the mean rate is within ~5 standard errors.
  const double rate = 4000.0 / (static_cast<double>(a.back()) * 1e-9);
  expect(near(rate, 20000.0, 20000.0 * 5.0 / std::sqrt(4000.0)),
         "mean arrival rate matches the segment rate");
  // Exponential gaps: about 1/e of them exceed the mean gap.
  const double mean_gap = static_cast<double>(a.back()) / 4000.0;
  int longer = 0;
  for (std::size_t i = 1; i < a.size(); ++i)
    longer += static_cast<double>(a[i] - a[i - 1]) > mean_gap ? 1 : 0;
  expect(near(longer / 4000.0, std::exp(-1.0), 0.04),
         "gap distribution is exponential");
}

void percentile_rule() {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  pb::Tail t = pb::tail_percentile(v, 0.99);
  expect(t.n == 1000 && t.q == 0.99 && t.value == 990.0,
         "1000 samples: p99 is rank 990, 10 samples beyond");
  v.resize(500);
  t = pb::tail_percentile(v, 0.99);
  expect(near(t.q, 0.98, 1e-12) && t.value == 490.0,
         "500 samples: falls back to p98, 10 samples beyond");
  v.resize(15);
  t = pb::tail_percentile(v, 0.99);
  expect(t.value == 5.0, "15 samples: rank 5 leaves 10 beyond");
  v.resize(8);
  t = pb::tail_percentile(v, 0.99);
  expect(t.q == 0.0 && t.value == 1.0, "under 10 samples: the minimum");
  expect(pb::median({3.0, 1.0, 2.0}) == 2.0, "median of three");
  expect(pb::median({4.0, 1.0, 3.0, 2.0}) == 2.0, "nearest-rank median");
}

void self_time() {
  auto span = [](std::int32_t id, std::int32_t parent, const char* layer,
                 std::int64_t a, std::int64_t b) {
    pb::Span s;
    s.id = id;
    s.parent = parent;
    s.layer = layer;
    s.start_ns = a;
    s.end_ns = b;
    return s;
  };
  // core [0, 100): children puma [10, 40) and [30, 60) overlap, nn
  // [12, 20) lies inside the first -> 50 covered. xbar [20, 25) sits under
  // the first puma span; xbar [50, 300) sticks out of the second and
  // counts as [50, 60) against it.
  std::vector<pb::Span> spans = {
      span(0, -1, "core", 0, 100), span(1, 0, "puma", 10, 40),
      span(2, 0, "puma", 30, 60),  span(3, 1, "xbar", 20, 25),
      span(4, 2, "xbar", 50, 300), span(5, 0, "nn", 12, 20),
  };
  double core = -1, puma = -1, xbar = -1, nn = -1;
  for (const auto& [layer, s] : pb::self_seconds_by_layer(spans)) {
    if (layer == "core") core = s * 1e9;
    if (layer == "puma") puma = s * 1e9;
    if (layer == "xbar") xbar = s * 1e9;
    if (layer == "nn") nn = s * 1e9;
  }
  expect(near(core, 50.0, 1e-6), "core self = 100 - union(10..60)");
  expect(near(nn, 8.0, 1e-6), "a childless span is all self time");
  expect(near(puma, (30 - 5) + (30 - 10), 1e-6),
         "puma self = each span minus its clipped xbar child");
  expect(near(xbar, 5 + 250, 1e-6), "leaf self = its duration");

  // Concurrent calls recorded through Coverage become one busy span.
  pb::Tracer t;
  pb::Coverage cov(t, "xbar", "xbar.mvm");
  const std::int32_t root = t.open("core", "core.forward", 7);
  const std::int64_t a = cov.enter();
  const std::int64_t b = cov.enter();
  cov.exit(a);
  cov.exit(b);
  t.close(root);
  const auto s = t.spans();
  expect(s.size() == 2 && s[1].parent == root && s[1].item == 7,
         "overlapping calls record one span under the ambient span");
  expect(cov.calls.load() == 2, "every call is counted");
}

}  // namespace

int main() {
  arrival_schedule();
  percentile_rule();
  self_time();
  if (failures != 0) {
    std::fprintf(stderr, "paperbench_selftest: %d failure(s)\n", failures);
    return 1;
  }
  std::printf("paperbench_selftest: ok\n");
  return 0;
}
