#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "common/check.h"
#include "common/env.h"
#include "common/file_cache.h"
#include "common/health.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/serialize.h"

namespace nvm {
namespace {

TEST(Check, ThrowsWithMessage) {
  EXPECT_THROW(NVM_CHECK(false, "ctx " << 42), CheckError);
  try {
    NVM_CHECK(1 == 2, "value=" << 7);
    FAIL() << "expected throw";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("value=7"), std::string::npos);
  }
}

TEST(Check, ComparisonMacros) {
  NVM_CHECK_LT(1, 2);
  NVM_CHECK_LE(2, 2);
  NVM_CHECK_EQ(3, 3);
  NVM_CHECK_GT(4, 3);
  NVM_CHECK_GE(4, 4);
  EXPECT_THROW(NVM_CHECK_LT(2, 1), CheckError);
  EXPECT_THROW(NVM_CHECK_EQ(1, 2), CheckError);
}

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIndexCoversRangeWithoutBias) {
  Rng rng(11);
  std::array<int, 7> counts{};
  const int n = 70000;
  for (int i = 0; i < n; ++i) counts[rng.uniform_index(7)]++;
  for (int c : counts) {
    EXPECT_GT(c, n / 7 - 800);
    EXPECT_LT(c, n / 7 + 800);
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(13);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalMomentsApproximatelyStandard) {
  Rng rng(17);
  double sum = 0, sq = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, SplitStreamsIndependentAndStable) {
  Rng parent(42);
  Rng c1 = parent.split(1);
  Rng c2 = parent.split(2);
  Rng c1_again = Rng(42).split(1);
  EXPECT_EQ(c1.next(), c1_again.next());
  EXPECT_NE(c1.next(), c2.next());
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(5);
  std::vector<int> v{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  rng.shuffle(v);
  std::set<int> s(v.begin(), v.end());
  EXPECT_EQ(s.size(), 10u);
}

TEST(Rng, BernoulliRespectsP) {
  Rng rng(23);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.25);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.02);
}

TEST(Serialize, RoundTripAllTypes) {
  std::stringstream ss;
  {
    BinaryWriter w(ss);
    w.write_u32(0xdeadbeef);
    w.write_u64(1ull << 60);
    w.write_i64(-12345);
    w.write_f32(3.5f);
    w.write_f64(-2.25);
    w.write_string("hello world");
    w.write_f32_vec({1.0f, -2.0f, 3.0f});
    w.write_i64_vec({7, -8});
  }
  BinaryReader r(ss);
  EXPECT_EQ(r.read_u32(), 0xdeadbeefu);
  EXPECT_EQ(r.read_u64(), 1ull << 60);
  EXPECT_EQ(r.read_i64(), -12345);
  EXPECT_EQ(r.read_f32(), 3.5f);
  EXPECT_EQ(r.read_f64(), -2.25);
  EXPECT_EQ(r.read_string(), "hello world");
  EXPECT_EQ(r.read_f32_vec(), (std::vector<float>{1.0f, -2.0f, 3.0f}));
  EXPECT_EQ(r.read_i64_vec(), (std::vector<std::int64_t>{7, -8}));
}

TEST(Serialize, TruncatedStreamThrows) {
  std::stringstream ss;
  {
    BinaryWriter w(ss);
    w.write_u32(1);
  }
  BinaryReader r(ss);
  (void)r.read_u32();
  EXPECT_THROW(r.read_u64(), CheckError);
}

TEST(Serialize, Crc32MatchesKnownVector) {
  // IEEE CRC32 check value: crc32("123456789") == 0xCBF43926.
  const char* msg = "123456789";
  EXPECT_EQ(crc32(msg, 9), 0xCBF43926u);
  EXPECT_EQ(crc32("", 0), 0u);
  // One flipped bit changes the checksum.
  const char msg2[] = "123456788";
  EXPECT_NE(crc32(msg2, 9), 0xCBF43926u);
}

TEST(Serialize, OversizedLengthPrefixThrowsCheckError) {
  // A corrupted length prefix must raise CheckError (catchable by the
  // cache layer) instead of attempting a multi-terabyte allocation.
  std::stringstream ss;
  {
    BinaryWriter w(ss);
    w.write_u64(~0ull);  // absurd element count
  }
  BinaryReader r(ss);
  EXPECT_THROW(r.read_string(), CheckError);
}

TEST(Health, BumpAndSnapshotDeltas) {
  const HealthSnapshot before = health_snapshot();
  bump(HealthCounter::SolverNonConverged);
  bump(HealthCounter::SurrogateFallback, 3);
  const HealthSnapshot delta = health_snapshot().delta_since(before);
  EXPECT_EQ(delta.solver_nonconverged, 1u);
  EXPECT_EQ(delta.surrogate_fallbacks, 3u);
  EXPECT_EQ(delta.nonfinite_outputs, 0u);
  EXPECT_FALSE(delta.all_zero());
  EXPECT_NE(delta.summary().find("solver_nc=1"), std::string::npos);
  EXPECT_NE(delta.summary().find("fallback=3"), std::string::npos);
  const HealthSnapshot none = health_snapshot().delta_since(health_snapshot());
  EXPECT_TRUE(none.all_zero());
}

TEST(Health, LogThrottleWarnsEarlyThenSparsely) {
  EXPECT_TRUE(health_should_log(1));
  EXPECT_TRUE(health_should_log(5));
  EXPECT_FALSE(health_should_log(6));
  EXPECT_FALSE(health_should_log(1000));
  EXPECT_TRUE(health_should_log(1024));
  EXPECT_TRUE(health_should_log(2048));
}

class FileCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("nvm_cache_test_" + std::to_string(::getpid()));
    ::setenv("NVMROBUST_CACHE_DIR", dir_.c_str(), 1);
    reset_file_cache_memo_for_tests();
  }
  void TearDown() override {
    ::unsetenv("NVMROBUST_CACHE_DIR");
    std::filesystem::remove_all(dir_);
    reset_file_cache_memo_for_tests();
  }

  /// Flips the last byte of an entry on disk (inside the payload).
  void corrupt_entry(const std::string& name) {
    const auto path = dir_ / name;
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekg(0, std::ios::end);
    const auto size = static_cast<std::streamoff>(f.tellg());
    f.seekp(size - 1);
    f.put('\xff');
  }

  std::filesystem::path dir_;
};

TEST_F(FileCacheTest, StoreThenLoad) {
  cache_store("entry.bin", "tag1",
              [](BinaryWriter& w) { w.write_i64(99); });
  std::int64_t got = 0;
  const bool ok = cache_load("entry.bin", "tag1",
                             [&](BinaryReader& r) { got = r.read_i64(); });
  EXPECT_TRUE(ok);
  EXPECT_EQ(got, 99);
}

TEST_F(FileCacheTest, TagMismatchInvalidates) {
  cache_store("entry.bin", "tag1",
              [](BinaryWriter& w) { w.write_i64(99); });
  const bool ok =
      cache_load("entry.bin", "tag2", [](BinaryReader&) { FAIL(); });
  EXPECT_FALSE(ok);
}

TEST_F(FileCacheTest, MissingEntryReturnsFalse) {
  EXPECT_FALSE(cache_load("nope.bin", "t", [](BinaryReader&) { FAIL(); }));
}

TEST_F(FileCacheTest, BitFlippedPayloadIsQuarantinedAndRecomputed) {
  cache_store("entry.bin", "tag",
              [](BinaryWriter& w) { w.write_i64(99); });
  // Flip one payload byte on disk (the last byte is inside the i64).
  const auto path = dir_ / "entry.bin";
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekg(0, std::ios::end);
    const auto size = static_cast<std::streamoff>(f.tellg());
    f.seekp(size - 1);
    f.put('\xff');
  }
  const auto corrupt_before = health_value(HealthCounter::CacheCorrupt);
  // The corrupted entry must read as a miss, never as wrong data...
  EXPECT_FALSE(
      cache_load("entry.bin", "tag", [](BinaryReader&) { FAIL(); }));
  EXPECT_GT(health_value(HealthCounter::CacheCorrupt), corrupt_before);
  // ...be quarantined out of the way...
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_TRUE(std::filesystem::exists(dir_ / "entry.bin.corrupt"));
  // ...and a recompute-store-load cycle must work again.
  cache_store("entry.bin", "tag",
              [](BinaryWriter& w) { w.write_i64(42); });
  std::int64_t got = 0;
  EXPECT_TRUE(cache_load("entry.bin", "tag",
                         [&](BinaryReader& r) { got = r.read_i64(); }));
  EXPECT_EQ(got, 42);
}

TEST_F(FileCacheTest, TruncatedEntryIsRejected) {
  cache_store("entry.bin", "tag",
              [](BinaryWriter& w) { w.write_f32_vec({1.f, 2.f, 3.f}); });
  const auto path = dir_ / "entry.bin";
  std::filesystem::resize_file(path,
                               std::filesystem::file_size(path) - 5);
  EXPECT_FALSE(
      cache_load("entry.bin", "tag", [](BinaryReader&) { FAIL(); }));
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST_F(FileCacheTest, GarbageFileIsRejectedNotCrashed) {
  const auto path = dir_ / "junk.bin";
  std::filesystem::create_directories(dir_);
  {
    std::ofstream f(path, std::ios::binary);
    Rng rng(99);
    for (int i = 0; i < 256; ++i)
      f.put(static_cast<char>(rng.uniform_int(0, 255)));
  }
  EXPECT_FALSE(cache_load("junk.bin", "tag", [](BinaryReader&) { FAIL(); }));
}

TEST_F(FileCacheTest, LeftoverTmpIsReclaimedByNextStore) {
  // A crashed process can leave entry.bin.tmp behind; the next store of
  // the same entry must truncate it, publish cleanly, and leave no .tmp.
  std::filesystem::create_directories(dir_);
  const auto tmp = dir_ / "entry.bin.tmp";
  {
    std::ofstream f(tmp, std::ios::binary);
    f << "stale half-written bytes from a crashed store";
  }
  ASSERT_TRUE(std::filesystem::exists(tmp));
  cache_store("entry.bin", "tag", [](BinaryWriter& w) { w.write_i64(5); });
  EXPECT_FALSE(std::filesystem::exists(tmp));
  std::int64_t got = 0;
  EXPECT_TRUE(cache_load("entry.bin", "tag",
                         [&](BinaryReader& r) { got = r.read_i64(); }));
  EXPECT_EQ(got, 5);
}

TEST_F(FileCacheTest, FailedPublishLeavesNoTmpBehind) {
  // Force the final rename to fail by occupying the destination with a
  // non-empty directory. The store must warn, not throw, and must clean
  // up its .tmp file instead of orphaning it.
  std::filesystem::create_directories(dir_ / "entry.bin" / "sub");
  EXPECT_NO_THROW(cache_store("entry.bin", "tag",
                              [](BinaryWriter& w) { w.write_i64(5); }));
  EXPECT_FALSE(std::filesystem::exists(dir_ / "entry.bin.tmp"));
  EXPECT_TRUE(std::filesystem::is_directory(dir_ / "entry.bin"));
}

TEST_F(FileCacheTest, PersistentlyCorruptKeyRecomputesOnceThenServesMemo) {
  // A slot that keeps losing its bytes must cost ONE recompute, not one
  // per lookup: after the recompute is stored (and memoized), lookups are
  // served from the memo even though the disk slot stays empty/bad.
  cache_store("entry.bin", "tag", [](BinaryWriter& w) { w.write_i64(7); });
  corrupt_entry("entry.bin");
  EXPECT_FALSE(cache_load("entry.bin", "tag",
                          [](BinaryReader&) { FAIL(); }));  // the one miss
  cache_store("entry.bin", "tag", [](BinaryWriter& w) { w.write_i64(42); });
  // Simulate the store never sticking: the slot is empty on every probe.
  std::filesystem::remove(dir_ / "entry.bin");
  const auto memo_before = metrics::counter("cache/file/memo_hits").value();
  for (int i = 0; i < 4; ++i) {
    std::int64_t got = 0;
    EXPECT_TRUE(cache_load("entry.bin", "tag",
                           [&](BinaryReader& r) { got = r.read_i64(); }))
        << "lookup " << i;
    EXPECT_EQ(got, 42) << "lookup " << i;
  }
  EXPECT_EQ(metrics::counter("cache/file/memo_hits").value(),
            memo_before + 4);
}

TEST_F(FileCacheTest, MemoNeverServesAcrossTagChange) {
  cache_store("entry.bin", "tagA", [](BinaryWriter& w) { w.write_i64(7); });
  corrupt_entry("entry.bin");
  EXPECT_FALSE(cache_load("entry.bin", "tagA", [](BinaryReader&) { FAIL(); }));
  cache_store("entry.bin", "tagA", [](BinaryWriter& w) { w.write_i64(42); });
  std::filesystem::remove(dir_ / "entry.bin");
  // A tag change means the memoized payload is stale by definition.
  EXPECT_FALSE(cache_load("entry.bin", "tagB", [](BinaryReader&) { FAIL(); }));
}

TEST_F(FileCacheTest, MemoStandsDownAfterDiskVerifiesAgain) {
  cache_store("entry.bin", "tag", [](BinaryWriter& w) { w.write_i64(5); });
  corrupt_entry("entry.bin");
  EXPECT_FALSE(cache_load("entry.bin", "tag", [](BinaryReader&) { FAIL(); }));
  cache_store("entry.bin", "tag", [](BinaryWriter& w) { w.write_i64(6); });
  // Drain the backoff window (memo-served), then let a real probe hit the
  // healthy on-disk entry — which must clear the memo.
  for (int i = 0; i < 3; ++i) {
    std::int64_t got = 0;
    EXPECT_TRUE(cache_load("entry.bin", "tag",
                           [&](BinaryReader& r) { got = r.read_i64(); }));
    EXPECT_EQ(got, 6);
  }
  // With the memo cleared, fresh corruption is a miss again (nothing
  // stale gets served), which is exactly the stand-down we want.
  corrupt_entry("entry.bin");
  EXPECT_FALSE(cache_load("entry.bin", "tag", [](BinaryReader&) { FAIL(); }));
}

TEST_F(FileCacheTest, LoadCallbackFailureDoesNotEscape) {
  // A payload that parses but whose loader trips an NVM_CHECK (schema
  // drift) must also surface as a miss, not an exception.
  cache_store("entry.bin", "tag",
              [](BinaryWriter& w) { w.write_i64(1); });
  EXPECT_FALSE(cache_load("entry.bin", "tag", [](BinaryReader& r) {
    (void)r.read_i64();
    NVM_CHECK(false, "loader rejects payload");
  }));
}

TEST(Rng, DeriveSeedMatchesSplitAndSeparatesStreams) {
  // The batch paths seed work unit i with derive_seed(base, i); this must
  // be exactly the split() stream so serial (split-based) and parallel
  // (derive_seed-based) consumers see identical generators.
  Rng parent(123);
  for (std::uint64_t s : {0ull, 1ull, 7ull, 1000ull}) {
    Rng a = parent.split(s);
    Rng b(derive_seed(123, s));
    for (int i = 0; i < 16; ++i) EXPECT_EQ(a.next(), b.next());
  }
  // Distinct streams decorrelate.
  EXPECT_NE(derive_seed(123, 0), derive_seed(123, 1));
  EXPECT_NE(derive_seed(123, 0), derive_seed(124, 0));
}

TEST(Env, ScaledSelectsByFlag) {
  ::unsetenv("REPRO_FULL");
  EXPECT_EQ(scaled(10, 100), 10);
  ::setenv("REPRO_FULL", "1", 1);
  EXPECT_EQ(scaled(10, 100), 100);
  ::unsetenv("REPRO_FULL");
}

TEST(Env, EnvIntParsesAndFallsBack) {
  ::setenv("NVM_TEST_INT", "42", 1);
  EXPECT_EQ(env_int("NVM_TEST_INT", 7), 42);
  ::unsetenv("NVM_TEST_INT");
  EXPECT_EQ(env_int("NVM_TEST_INT", 7), 7);
  ::setenv("NVM_TEST_INT", "junk", 1);
  EXPECT_EQ(env_int("NVM_TEST_INT", 7), 7);
  ::unsetenv("NVM_TEST_INT");
}

TEST(Env, EnvIntRejectsTrailingGarbageAndOverflow) {
  // "8abc" is a typo, not 8: a partial parse must not be half-accepted.
  ::setenv("NVM_TEST_INT", "8abc", 1);
  EXPECT_EQ(env_int("NVM_TEST_INT", 7), 7);
  ::setenv("NVM_TEST_INT", "4 2", 1);
  EXPECT_EQ(env_int("NVM_TEST_INT", 7), 7);
  // Surrounding whitespace is fine; strtoll skips it leading, we allow it
  // trailing.
  ::setenv("NVM_TEST_INT", " 42 ", 1);
  EXPECT_EQ(env_int("NVM_TEST_INT", 7), 42);
  ::setenv("NVM_TEST_INT", "-12", 1);
  EXPECT_EQ(env_int("NVM_TEST_INT", 7), -12);
  // Out-of-range values would otherwise silently clamp to LLONG_MAX/MIN.
  ::setenv("NVM_TEST_INT", "99999999999999999999999999", 1);
  EXPECT_EQ(env_int("NVM_TEST_INT", 7), 7);
  ::setenv("NVM_TEST_INT", "-99999999999999999999999999", 1);
  EXPECT_EQ(env_int("NVM_TEST_INT", 7), 7);
  ::setenv("NVM_TEST_INT", "", 1);
  EXPECT_EQ(env_int("NVM_TEST_INT", 7), 7);
  ::unsetenv("NVM_TEST_INT");
}

TEST(ParseDouble, AcceptsWellFormedNumbers) {
  double v = 0.0;
  EXPECT_TRUE(parse_double("0.25", &v));
  EXPECT_EQ(v, 0.25);
  EXPECT_TRUE(parse_double("-3e2", &v));
  EXPECT_EQ(v, -300.0);
  EXPECT_TRUE(parse_double("  7.5", &v));  // leading space: strtod skips
  EXPECT_EQ(v, 7.5);
  EXPECT_TRUE(parse_double("8.0 ", &v));  // trailing space tolerated
  EXPECT_EQ(v, 8.0);
}

TEST(ParseDouble, RejectsMalformedInputWithoutThrowing) {
  // Regression: these strings previously reached std::stod in the CLI
  // (flag_or / parse_list / fleet_param) and terminated the process with
  // an uncaught std::invalid_argument. The strict parser must report
  // failure instead of throwing.
  double v = 42.0;
  EXPECT_FALSE(parse_double("abc", &v));
  EXPECT_FALSE(parse_double("", &v));
  EXPECT_FALSE(parse_double(nullptr, &v));
  EXPECT_FALSE(parse_double("0.1x", &v));  // trailing junk (stod half-parses!)
  EXPECT_FALSE(parse_double("--2", &v));
  EXPECT_FALSE(parse_double("1e999", &v));  // ERANGE
  EXPECT_EQ(v, 42.0) << "failed parse must not clobber the output";
}

TEST(EnvDouble, FallsBackOnUnsetAndMalformed) {
  ::unsetenv("NVM_TEST_DBL");
  EXPECT_EQ(env_double("NVM_TEST_DBL", 1.5), 1.5);
  ::setenv("NVM_TEST_DBL", "2.75", 1);
  EXPECT_EQ(env_double("NVM_TEST_DBL", 1.5), 2.75);
  ::setenv("NVM_TEST_DBL", "not-a-number", 1);
  EXPECT_EQ(env_double("NVM_TEST_DBL", 1.5), 1.5);
  ::setenv("NVM_TEST_DBL", "3.5junk", 1);
  EXPECT_EQ(env_double("NVM_TEST_DBL", 1.5), 1.5);
  ::unsetenv("NVM_TEST_DBL");
}

}  // namespace
}  // namespace nvm
