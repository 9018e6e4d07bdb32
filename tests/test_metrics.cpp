// Metrics registry, trace spans, the run manifest JSON, and the log line
// format — the observability subsystem (DESIGN.md §10).
#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <regex>
#include <sstream>
#include <thread>
#include <type_traits>

#include "common/check.h"
#include "common/health.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "core/report.h"
#include "tensor/tensor.h"
#include "xbar/circuit_solver.h"
#include "xbar/geniex.h"

namespace {

using namespace nvm;

// ---------------------------------------------------------------------------
// Counter / gauge / histogram semantics

TEST(Metrics, CounterAddAccumulatesAndResets) {
  metrics::Counter& c = metrics::counter("test/counter_basic");
  c.reset();
  // add() returns nothing (a running total would need a cross-shard sum
  // per call); the total is read through value().
  static_assert(std::is_void_v<decltype(c.add())>);
  c.add();
  EXPECT_EQ(c.value(), 1u);
  c.add(4);
  EXPECT_EQ(c.value(), 5u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Metrics, GaugeLastWriteWins) {
  metrics::Gauge& g = metrics::gauge("test/gauge_basic");
  g.set(1.5);
  g.set(-2.25);
  EXPECT_DOUBLE_EQ(g.value(), -2.25);
}

TEST(Metrics, HistogramBucketsByInclusiveUpperBound) {
  metrics::Histogram& h =
      metrics::histogram("test/hist_basic", {1.0, 10.0, 100.0});
  h.reset();
  h.observe(0.5);    // <= 1      -> bucket 0
  h.observe(1.0);    // == bound  -> bucket 0 (inclusive)
  h.observe(7.0);    // <= 10     -> bucket 1
  h.observe(1000);   // overflow  -> bucket 3
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 7.0 + 1000.0);
  const auto buckets = h.bucket_counts();
  ASSERT_EQ(buckets.size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(buckets[0], 2u);
  EXPECT_EQ(buckets[1], 1u);
  EXPECT_EQ(buckets[2], 0u);
  EXPECT_EQ(buckets[3], 1u);
}

TEST(Metrics, SameNameReturnsSameObject) {
  metrics::Counter& a = metrics::counter("test/same_name");
  metrics::Counter& b = metrics::counter("test/same_name");
  EXPECT_EQ(&a, &b);
}

TEST(Metrics, KindMismatchThrows) {
  metrics::counter("test/kind_clash");
  EXPECT_THROW(metrics::gauge("test/kind_clash"), CheckError);
  EXPECT_THROW(metrics::histogram("test/kind_clash"), CheckError);
}

TEST(Metrics, InvalidNameThrows) {
  EXPECT_THROW(metrics::counter("Test/Upper"), CheckError);
  EXPECT_THROW(metrics::counter("has space"), CheckError);
  EXPECT_THROW(metrics::counter(""), CheckError);
}

TEST(Metrics, HistogramBoundsMismatchThrows) {
  metrics::histogram("test/hist_bounds", {1.0, 2.0});
  EXPECT_THROW(metrics::histogram("test/hist_bounds", {1.0, 3.0}), CheckError);
  EXPECT_THROW(metrics::Histogram({2.0, 1.0}), CheckError);  // not increasing
  EXPECT_THROW(metrics::Histogram({}), CheckError);          // empty
}

TEST(Metrics, GaugeAddAggregatesAcrossWriters) {
  metrics::Gauge& g = metrics::gauge("test/gauge_add");
  g.reset();
  g.add(3.0);
  g.add(2.5);
  g.add(-1.5);
  EXPECT_DOUBLE_EQ(g.value(), 4.0);
  g.set(10.0);  // set still overwrites
  EXPECT_DOUBLE_EQ(g.value(), 10.0);
}

TEST(Metrics, SanitizeNameComponent) {
  EXPECT_EQ(metrics::sanitize_name_component("SCIFAR10-v2"), "scifar10_v2");
  EXPECT_EQ(metrics::sanitize_name_component("a/b c"), "a_b_c");  // no '/'
  EXPECT_EQ(metrics::sanitize_name_component("ok_name.v1"), "ok_name.v1");
  EXPECT_EQ(metrics::sanitize_name_component(""), "_");
  // Sanitized output is always registrable as a component.
  metrics::counter("test/" +
                   metrics::sanitize_name_component("Tenant A (prod)"));
}

TEST(Metrics, ScopeResolvesPrefixedNamesOnce) {
  metrics::Scope scope("test/scope0");
  EXPECT_EQ(scope.full_name("hits"), "test/scope0/hits");
  metrics::Counter& a = scope.counter("hits");
  metrics::Counter& b = scope.counter("hits");       // cached
  metrics::Counter& c = metrics::counter("test/scope0/hits");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(&a, &c);  // same registry entry as the free function

  scope.gauge("level").set(2.0);
  EXPECT_DOUBLE_EQ(metrics::gauge("test/scope0/level").value(), 2.0);
  scope.histogram("lat_ns").observe(5.0);
  EXPECT_GE(metrics::histogram("test/scope0/lat_ns").count(), 1u);

  EXPECT_THROW(metrics::Scope("Bad/Prefix"), CheckError);
}

TEST(Metrics, TwoScopesSamePrefixAliasWithoutThrowing) {
  // The duplicate-registration footgun: two shards loading the same model
  // build the same series twice. Scopes must alias, tally additively, and
  // never throw — including histograms with explicit (equal) bounds.
  metrics::Scope first("test/shardx");
  metrics::Scope second("test/shardx");
  first.counter("served").add(2);
  second.counter("served").add(3);
  EXPECT_EQ(&first.counter("served"), &second.counter("served"));
  EXPECT_GE(first.counter("served").value(), 5u);

  first.histogram("sizes", {1.0, 4.0});
  second.histogram("sizes", {1.0, 4.0});  // same bounds: aliases
  // Kind mismatches still throw (aliasing never papers over a real clash).
  first.counter("kind_clash");
  EXPECT_THROW(second.histogram("kind_clash"), CheckError);
}

TEST(Metrics, CountersExactUnderConcurrentAdds) {
  metrics::Counter& c = metrics::counter("test/concurrent_adds");
  c.reset();
  const auto before = metrics::snapshot();
  // More threads than shards, so some threads share a shard; sums must
  // stay exact either way.
  constexpr int kThreads =
      2 * static_cast<int>(metrics::Counter::kShards) + 3;
  constexpr int kAdds = 5000;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t)
    ts.emplace_back([&c, t] {
      for (int i = 0; i < kAdds; ++i) c.add(1 + (t & 1));
    });
  // Snapshots taken while the adders run see a monotonic total.
  std::uint64_t last = 0;
  for (int i = 0; i < 50; ++i) {
    const std::uint64_t now = c.value();
    EXPECT_GE(now, last);
    last = now;
  }
  for (auto& t : ts) t.join();
  // Even-numbered threads add 1 per call, odd-numbered ones 2.
  const std::uint64_t expected = static_cast<std::uint64_t>(kAdds) *
                                 ((kThreads + 1) / 2 + 2 * (kThreads / 2));
  EXPECT_EQ(c.value(), expected);

  const auto d = metrics::delta(metrics::snapshot(), before);
  bool found = false;
  for (const metrics::MetricValue& m : d)
    if (m.name == "test/concurrent_adds") {
      found = true;
      EXPECT_EQ(m.value, static_cast<double>(expected));
    }
  EXPECT_TRUE(found);
}

TEST(Metrics, QuantileInterpolatesWithinBuckets) {
  metrics::MetricValue m;
  m.kind = metrics::Kind::Histogram;
  m.bounds = {10.0, 20.0, 40.0};
  m.buckets = {4, 4, 0, 0};  // uniform mass over (0,10] and (10,20]
  m.count = 8;
  // Rank q*count = 4 lands at the top of bucket 0; q=0.25 is its middle.
  EXPECT_DOUBLE_EQ(metrics::quantile(m, 0.5), 10.0);
  EXPECT_DOUBLE_EQ(metrics::quantile(m, 0.25), 5.0);
  EXPECT_DOUBLE_EQ(metrics::quantile(m, 0.75), 15.0);
  EXPECT_DOUBLE_EQ(metrics::quantile(m, 1.0), 20.0);
  // Out-of-range q clamps rather than extrapolating.
  EXPECT_DOUBLE_EQ(metrics::quantile(m, 2.0), 20.0);
}

TEST(Metrics, QuantileHandlesOverflowAndDegenerateInputs) {
  metrics::MetricValue m;
  m.kind = metrics::Kind::Histogram;
  m.bounds = {10.0, 20.0};
  m.buckets = {1, 0, 9};  // almost all mass beyond the last bound
  m.count = 10;
  // Overflow-bucket quantiles resolve to the highest bound (Prometheus
  // semantics): the histogram cannot see further than its last edge.
  EXPECT_DOUBLE_EQ(metrics::quantile(m, 0.99), 20.0);

  // All mass in the overflow bucket: every quantile clamps to the last
  // finite bound instead of extrapolating beyond the histogram's range.
  metrics::MetricValue overflow_only;
  overflow_only.kind = metrics::Kind::Histogram;
  overflow_only.bounds = {10.0, 20.0};
  overflow_only.buckets = {0, 0, 5};
  overflow_only.count = 5;
  EXPECT_DOUBLE_EQ(metrics::quantile(overflow_only, 0.01), 20.0);
  EXPECT_DOUBLE_EQ(metrics::quantile(overflow_only, 0.99), 20.0);

  // Degenerate inputs have no defined quantile: NaN, not a fake 0.0 (the
  // manifest writer serializes NaN as JSON null, so consumers can tell
  // "no data" from "measured zero").
  metrics::MetricValue empty;
  empty.kind = metrics::Kind::Histogram;
  empty.bounds = {10.0};
  empty.buckets = {0, 0};
  EXPECT_TRUE(std::isnan(metrics::quantile(empty, 0.5)));

  metrics::MetricValue counter;  // non-histogram
  counter.kind = metrics::Kind::Counter;
  counter.value = 7.0;
  EXPECT_TRUE(std::isnan(metrics::quantile(counter, 0.5)));

  metrics::MetricValue boundless;  // histogram with no buckets at all
  boundless.kind = metrics::Kind::Histogram;
  boundless.count = 3;
  EXPECT_TRUE(std::isnan(metrics::quantile(boundless, 0.5)));
}

TEST(Metrics, SnapshotAndDelta) {
  metrics::Counter& c = metrics::counter("test/delta_counter");
  metrics::Gauge& g = metrics::gauge("test/delta_gauge");
  c.reset();
  c.add(10);
  g.set(1.0);
  const auto base = metrics::snapshot();
  c.add(7);
  g.set(42.0);
  const auto diff = metrics::delta(metrics::snapshot(), base);
  double counter_delta = -1, gauge_value = -1;
  for (const auto& m : diff) {
    if (m.name == "test/delta_counter") counter_delta = m.value;
    if (m.name == "test/delta_gauge") gauge_value = m.value;
  }
  EXPECT_DOUBLE_EQ(counter_delta, 7.0);   // counters subtract
  EXPECT_DOUBLE_EQ(gauge_value, 42.0);    // gauges pass through
  // Snapshot is sorted by name.
  const auto snap = metrics::snapshot();
  for (std::size_t i = 1; i < snap.size(); ++i)
    EXPECT_LT(snap[i - 1].name, snap[i].name);
}

// ---------------------------------------------------------------------------
// Health counters are metrics (single source of truth)

TEST(Health, BumpIsVisibleThroughBothViews) {
  reset_health_counters();
  bump(HealthCounter::SolverNonConverged, 3);
  EXPECT_EQ(health_value(HealthCounter::SolverNonConverged), 3u);
  EXPECT_EQ(metrics::counter("solver/nonconverged").value(), 3u);
  EXPECT_EQ(health_snapshot().solver_nonconverged, 3u);
  // One increment path: the metric IS the counter, no double counting.
  metrics::counter("solver/nonconverged").add();
  EXPECT_EQ(health_value(HealthCounter::SolverNonConverged), 4u);
  reset_health_counters();
  EXPECT_EQ(metrics::counter("solver/nonconverged").value(), 0u);
}

TEST(Health, MetricNamesAreCanonical) {
  EXPECT_STREQ(health_metric_name(HealthCounter::SolverNonConverged),
               "solver/nonconverged");
  EXPECT_STREQ(health_metric_name(HealthCounter::NonFiniteOutput),
               "xbar/nonfinite_outputs");
  EXPECT_STREQ(health_metric_name(HealthCounter::SurrogateFallback),
               "xbar/geniex/fallbacks");
  EXPECT_STREQ(health_metric_name(HealthCounter::CacheCorrupt),
               "cache/file/corrupt");
}

// ---------------------------------------------------------------------------
// Trace spans

TEST(Trace, SpanRecordsCountAndTotals) {
  trace::reset_for_tests();
  trace::set_enabled(true);
  for (int i = 0; i < 5; ++i) {
    NVM_TRACE_SPAN("test/span_basic");
  }
  const auto st = trace::span_stats("test/span_basic");
  EXPECT_EQ(st.count, 5u);
  EXPECT_GE(st.max_ns, st.min_ns);
  EXPECT_GE(st.total_ns, st.max_ns);
}

TEST(Trace, DisabledSpansRecordNothingButSecondsWorks) {
  trace::reset_for_tests();
  trace::set_enabled(false);
  {
    trace::Span s("test/span_disabled");
    EXPECT_GE(s.seconds(), 0.0);
  }
  trace::set_enabled(true);
  EXPECT_EQ(trace::span_stats("test/span_disabled").count, 0u);
}

TEST(Trace, PerThreadTablesMergeUnderPoolFanOut) {
  trace::reset_for_tests();
  constexpr std::int64_t kTasks = 64;
  ThreadPool pool(4);
  ThreadPool::ScopedUse use(pool);
  parallel_for(kTasks, [](std::int64_t) {
    NVM_TRACE_SPAN("test/span_pool");
  });
  const auto st = trace::span_stats("test/span_pool");
  EXPECT_EQ(st.count, static_cast<std::uint64_t>(kTasks));
  // The merged view appears exactly once in the snapshot.
  int seen = 0;
  for (const auto& [name, stats] : trace::snapshot())
    if (name == "test/span_pool") ++seen;
  EXPECT_EQ(seen, 1);
}

TEST(Trace, InstrumentedSolverIsBitIdenticalTracedOrNot) {
  xbar::CrossbarConfig cfg;
  cfg.rows = cfg.cols = 12;
  Rng rng(3);
  Tensor g = xbar::sample_conductances(cfg, rng);
  Tensor v = xbar::sample_voltages(cfg, rng);
  xbar::SolverOptions opt;

  trace::set_enabled(true);
  Tensor traced = xbar::solve_crossbar(cfg, opt, g, v);
  trace::set_enabled(false);
  Tensor untraced = xbar::solve_crossbar(cfg, opt, g, v);
  trace::set_enabled(true);

  ASSERT_EQ(traced.numel(), untraced.numel());
  for (std::int64_t i = 0; i < traced.numel(); ++i)
    EXPECT_EQ(traced[i], untraced[i]) << "column " << i;
}

TEST(Trace, SolverBumpsSolveAndSweepCounters) {
  xbar::CrossbarConfig cfg;
  cfg.rows = cfg.cols = 8;
  Rng rng(5);
  Tensor g = xbar::sample_conductances(cfg, rng);
  Tensor v = xbar::sample_voltages(cfg, rng);
  const std::uint64_t solves0 = metrics::counter("solver/solves").value();
  const std::uint64_t sweeps0 = metrics::counter("solver/sweeps").value();
  xbar::SolveStats stats;
  (void)xbar::solve_crossbar(cfg, xbar::SolverOptions{}, g, v, &stats);
  EXPECT_EQ(metrics::counter("solver/solves").value(), solves0 + 1);
  EXPECT_EQ(metrics::counter("solver/sweeps").value(),
            sweeps0 + static_cast<std::uint64_t>(stats.sweeps_used));
  EXPECT_GT(stats.sweeps_used, 0);
}

// ---------------------------------------------------------------------------
// JSON writer

std::string write_json(const std::function<void(core::JsonWriter&)>& fn) {
  std::ostringstream os;
  core::JsonWriter j(os);
  fn(j);
  return os.str();
}

/// Tiny structural JSON validator: objects/arrays/strings/numbers/bool/
/// null, enough to reject truncated or mis-commaed output.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& s) : s_(s) {}
  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    const char c = s_[pos_];
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') return string();
    if (c == 't') return literal("true");
    if (c == 'f') return literal("false");
    if (c == 'n') return literal("null");
    return number();
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    for (;;) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    for (;;) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }
  bool number() {
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            strchr("+-.eE", s_[pos_]) != nullptr))
      ++pos_;
    return pos_ > start;
  }
  bool literal(const char* lit) {
    const std::size_t n = std::strlen(lit);
    if (s_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }
  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])))
      ++pos_;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

TEST(Json, EscapesSpecialCharacters) {
  EXPECT_EQ(core::JsonWriter::escape("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(core::JsonWriter::escape("a\\b"), "\"a\\\\b\"");
  EXPECT_EQ(core::JsonWriter::escape("line\nbreak\ttab"),
            "\"line\\nbreak\\ttab\"");
  EXPECT_EQ(core::JsonWriter::escape(std::string("nul\x01") + "x"),
            "\"nul\\u0001x\"");
}

TEST(Json, NonFiniteDoublesBecomeNull) {
  const std::string out = write_json([](core::JsonWriter& j) {
    j.begin_object();
    j.key("nan");
    j.value(std::nan(""));
    j.key("inf");
    j.value(std::numeric_limits<double>::infinity());
    j.key("ok");
    j.value(1.5);
    j.end_object();
  });
  EXPECT_NE(out.find("\"nan\": null"), std::string::npos);
  EXPECT_NE(out.find("\"inf\": null"), std::string::npos);
  EXPECT_NE(out.find("\"ok\": 1.5"), std::string::npos);
  EXPECT_TRUE(JsonChecker(out).valid()) << out;
}

TEST(Json, NestedStructuresAreWellFormed) {
  const std::string out = write_json([](core::JsonWriter& j) {
    j.begin_object();
    j.key("empty_obj");
    j.begin_object();
    j.end_object();
    j.key("arr");
    j.begin_array();
    j.value(std::uint64_t{1});
    j.value("two");
    j.begin_object();
    j.key("three");
    j.value(true);
    j.end_object();
    j.end_array();
    j.key("neg");
    j.value(std::int64_t{-7});
    j.end_object();
  });
  EXPECT_TRUE(JsonChecker(out).valid()) << out;
}

// ---------------------------------------------------------------------------
// Run manifest

TEST(Manifest, RoundTripsConfigResultsAndMetricDeltas) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "nvm_manifest_test.json")
          .string();
  metrics::counter("test/manifest_counter").reset();
  metrics::counter("test/manifest_counter").add(5);  // pre-manifest: excluded
  {
    core::RunManifest m("unit_test", path);
    metrics::counter("test/manifest_counter").add(3);  // in-run: included
    xbar::CrossbarConfig cfg;
    cfg.name = "weird \"name\"\n";
    cfg.rows = 24;
    cfg.cols = 48;
    m.set_xbar(cfg);
    m.add_result("accuracy", 87.5);
    m.set_note("note_key", "value with\nnewline");
    // No explicit write(): destructor must flush.
  }
  std::ifstream is(path);
  ASSERT_TRUE(is.good());
  std::stringstream buf;
  buf << is.rdbuf();
  const std::string text = buf.str();
  EXPECT_TRUE(JsonChecker(text).valid()) << text;
  EXPECT_NE(text.find("\"run\": \"unit_test\""), std::string::npos);
  EXPECT_NE(text.find("\"rows\": 24"), std::string::npos);
  EXPECT_NE(text.find("\"accuracy\": 87.5"), std::string::npos);
  EXPECT_NE(text.find("\"weird \\\"name\\\"\\n\""), std::string::npos);
  EXPECT_NE(text.find("\"test/manifest_counter\": 3"), std::string::npos);
  EXPECT_NE(text.find("\"solver/nonconverged\""), std::string::npos);
  std::filesystem::remove(path);
}

TEST(Manifest, InactiveWithoutPathWritesNothing) {
  core::RunManifest m("inert", "");
  EXPECT_FALSE(m.active());
  m.add_result("x", 1.0);
  m.write();  // must be a no-op, not a crash
}

TEST(Manifest, FromEnvPrefersFlagOverEnvironment) {
  ASSERT_EQ(setenv("NVM_METRICS_OUT", "/tmp/from_env.json", 1), 0);
  core::RunManifest from_flag = core::RunManifest::from_env("r", "/dev/null");
  EXPECT_TRUE(from_flag.active());
  core::RunManifest from_env = core::RunManifest::from_env("r");
  EXPECT_TRUE(from_env.active());
  ASSERT_EQ(unsetenv("NVM_METRICS_OUT"), 0);
  core::RunManifest inert = core::RunManifest::from_env("r");
  EXPECT_FALSE(inert.active());
  // Keep the env-pointed file from being written by the temporaries.
  from_env.write();  // writes /tmp/from_env.json once
  std::filesystem::remove("/tmp/from_env.json");
}

// ---------------------------------------------------------------------------
// Log line format

TEST(Logging, PrefixFormatIsStable) {
  const std::string p = log_prefix(LogLevel::Warn, "some/dir/file.cpp", 42);
  // "[W 2026-08-05T14:03:21.042 t0 file.cpp:42] "
  const std::regex re(
      R"(\[W \d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}\.\d{3} t\d+ file\.cpp:42\] )");
  EXPECT_TRUE(std::regex_match(p, re)) << p;
}

TEST(Logging, ThreadIdsAreSmallAndStablePerThread) {
  const int id_a = log_thread_id();
  EXPECT_EQ(log_thread_id(), id_a);  // stable within a thread
  int id_b = -1;
  std::thread([&id_b] { id_b = log_thread_id(); }).join();
  EXPECT_NE(id_b, -1);
  EXPECT_NE(id_b, id_a);  // distinct across threads
}

TEST(Logging, LevelThresholdGatesMessages) {
  const LogLevel prev = log_level();
  set_log_level(LogLevel::Warn);
  detail::LogMessage err(LogLevel::Error, __FILE__, __LINE__);
  EXPECT_TRUE(err.enabled());
  err << "level-threshold self-test (this line is expected)";
  EXPECT_FALSE(detail::LogMessage(LogLevel::Debug, __FILE__, __LINE__).enabled());
  set_log_level(prev);
}

}  // namespace
