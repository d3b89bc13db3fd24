// Unit tests for semcache::common — RNG determinism, serialization
// round-trips, bit helpers, and contract checking.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>

#include "common/bits.hpp"
#include "common/check.hpp"
#include "common/grouping.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "common/serialize.hpp"

namespace semcache {
namespace {

TEST(Check, ThrowsWithMessage) {
  try {
    SEMCACHE_CHECK(false, "the message");
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("the message"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("false"), std::string::npos);
  }
}

TEST(Check, PassesSilently) {
  EXPECT_NO_THROW(SEMCACHE_CHECK(1 + 1 == 2, "never"));
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.uniform() == b.uniform()) ++equal;
  }
  EXPECT_LT(equal, 4);
}

TEST(Rng, AdjacentSeedsUncorrelated) {
  // splitmix mixing: seeds 0 and 1 should produce unrelated streams.
  Rng a(0), b(1);
  double corr = 0.0;
  for (int i = 0; i < 1000; ++i) {
    corr += (a.uniform() - 0.5) * (b.uniform() - 0.5);
  }
  EXPECT_LT(std::abs(corr / 1000.0), 0.02);
}

TEST(Rng, ForkIsDeterministicAndIndependent) {
  Rng root(42);
  Rng f1 = root.fork(7);
  Rng f2 = Rng(42).fork(7);
  for (int i = 0; i < 20; ++i) EXPECT_DOUBLE_EQ(f1.uniform(), f2.uniform());
  // Different tags give different streams.
  Rng g = root.fork(8);
  Rng h = root.fork(7);
  bool any_diff = false;
  for (int i = 0; i < 20; ++i) {
    if (g.uniform() != h.uniform()) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Rng, ForkIsConstAndOrderIndependent) {
  // fork() derives the child purely from (parent seed, tag): it must not
  // advance the parent stream, and fork order must not matter — the
  // fine-tune and idiolect forks rely on both.
  Rng a(42), b(42);
  (void)a.fork(3);
  (void)a.fork(1);
  const std::uint64_t after_forks = a.engine()();
  const std::uint64_t untouched = b.engine()();
  EXPECT_EQ(after_forks, untouched);
  EXPECT_EQ(a.fork(2).seed(), b.fork(2).seed());
}

TEST(Rng, UniformRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(2.0, 3.0);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 3.0);
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(5);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_int(-2, 2));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_TRUE(seen.contains(-2));
  EXPECT_TRUE(seen.contains(2));
}

TEST(Rng, GaussianMoments) {
  Rng rng(11);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.gaussian(3.0, 2.0);
    sum += g;
    sq += g * g;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 3.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.25);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(13);
  int ones = 0;
  for (int i = 0; i < 10000; ++i) ones += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(ones / 10000.0, 0.3, 0.02);
}

TEST(Rng, BernoulliRejectsBadProbability) {
  Rng rng(1);
  EXPECT_THROW(rng.bernoulli(1.5), Error);
  EXPECT_THROW(rng.bernoulli(-0.1), Error);
}

TEST(Rng, CategoricalRespectsWeights) {
  Rng rng(17);
  std::vector<double> w = {1.0, 0.0, 3.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 8000; ++i) ++counts[rng.categorical(w)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(counts[0] / 8000.0, 0.25, 0.03);
  EXPECT_NEAR(counts[2] / 8000.0, 0.75, 0.03);
}

TEST(Rng, CategoricalRejectsDegenerate) {
  Rng rng(1);
  std::vector<double> empty;
  EXPECT_THROW(rng.categorical(empty), Error);
  std::vector<double> zeros = {0.0, 0.0};
  EXPECT_THROW(rng.categorical(zeros), Error);
  std::vector<double> negative = {1.0, -1.0};
  EXPECT_THROW(rng.categorical(negative), Error);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(23);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  auto copy = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, copy);
}

TEST(Serialize, PrimitiveRoundTrip) {
  ByteWriter w;
  w.write_u8(0xAB);
  w.write_u16(0xBEEF);
  w.write_u32(0xDEADBEEFu);
  w.write_u64(0x0123456789ABCDEFull);
  w.write_i32(-42);
  w.write_i64(-1234567890123ll);
  w.write_f32(3.25f);
  w.write_f64(-2.5e-8);
  w.write_string("hello");

  ByteReader r(w.bytes());
  EXPECT_EQ(r.read_u8(), 0xAB);
  EXPECT_EQ(r.read_u16(), 0xBEEF);
  EXPECT_EQ(r.read_u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.read_u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.read_i32(), -42);
  EXPECT_EQ(r.read_i64(), -1234567890123ll);
  EXPECT_FLOAT_EQ(r.read_f32(), 3.25f);
  EXPECT_DOUBLE_EQ(r.read_f64(), -2.5e-8);
  EXPECT_EQ(r.read_string(), "hello");
  EXPECT_TRUE(r.exhausted());
}

TEST(Serialize, FloatVectorRoundTrip) {
  ByteWriter w;
  const std::vector<float> v = {1.0f, -2.5f, 0.0f, 1e-20f};
  w.write_f32_vector(v);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.read_f32_vector(), v);
}

TEST(Serialize, SpecialFloatValues) {
  ByteWriter w;
  w.write_f32(std::numeric_limits<float>::infinity());
  w.write_f64(-std::numeric_limits<double>::infinity());
  ByteReader r(w.bytes());
  EXPECT_TRUE(std::isinf(r.read_f32()));
  EXPECT_TRUE(std::isinf(r.read_f64()));
}

TEST(Serialize, UnderrunThrows) {
  ByteWriter w;
  w.write_u16(7);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.read_u8(), 7);
  EXPECT_THROW(r.read_u32(), Error);
}

TEST(Serialize, LittleEndianLayout) {
  ByteWriter w;
  w.write_u32(0x01020304u);
  EXPECT_EQ(w.bytes()[0], 0x04);
  EXPECT_EQ(w.bytes()[3], 0x01);
}

TEST(Bits, BytesToBitsRoundTrip) {
  const std::vector<std::uint8_t> bytes = {0x00, 0xFF, 0xA5, 0x3C};
  const BitVec bits = bytes_to_bits(bytes);
  EXPECT_EQ(bits.size(), 32u);
  EXPECT_EQ(bits_to_bytes(bits), bytes);
}

TEST(Bits, LsbFirstOrder) {
  const std::vector<std::uint8_t> bytes = {0x01};
  const BitVec bits = bytes_to_bits(bytes);
  EXPECT_EQ(bits[0], 1);
  for (int i = 1; i < 8; ++i) EXPECT_EQ(bits[i], 0);
}

TEST(Bits, PartialBytePadsWithZeros) {
  BitVec bits = {1, 0, 1};  // 3 bits
  const auto bytes = bits_to_bytes(bits);
  EXPECT_EQ(bytes.size(), 1u);
  EXPECT_EQ(bytes[0], 0x05);
}

TEST(Bits, HammingDistanceCountsLengthMismatch) {
  EXPECT_EQ(hamming_distance({1, 0, 1}, {1, 0, 1}), 0u);
  EXPECT_EQ(hamming_distance({1, 0, 1}, {1, 1, 1}), 1u);
  EXPECT_EQ(hamming_distance({1, 0}, {1, 0, 1, 1}), 2u);
}

TEST(Bits, AppendReadRoundTrip) {
  BitVec bits;
  append_bits(bits, 0x2B, 6);
  append_bits(bits, 0x01, 1);
  append_bits(bits, 0xFFFF, 16);
  std::size_t pos = 0;
  EXPECT_EQ(read_bits(bits, pos, 6), 0x2Bu);
  EXPECT_EQ(read_bits(bits, pos, 1), 1u);
  EXPECT_EQ(read_bits(bits, pos, 16), 0xFFFFu);
  EXPECT_EQ(pos, bits.size());
}

TEST(Bits, ReadPastEndThrows) {
  BitVec bits = {1, 0};
  std::size_t pos = 0;
  EXPECT_THROW(read_bits(bits, pos, 3), Error);
}

class BitsRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BitsRoundTrip, RandomPayloads) {
  Rng rng(GetParam());
  std::vector<std::uint8_t> bytes(GetParam() % 64 + 1);
  for (auto& b : bytes) {
    b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  }
  EXPECT_EQ(bits_to_bytes(bytes_to_bits(bytes)), bytes);
}

INSTANTIATE_TEST_SUITE_P(Sweep, BitsRoundTrip,
                         ::testing::Values(1, 2, 3, 7, 8, 15, 31, 63, 64));

// The tests assert on log_once's RETURN VALUE (did the line go out?), not
// on captured stderr — the counter is the contract.
TEST(LogOnce, DeduplicatesByKey) {
  unsetenv("SEMCACHE_LOG_LEVEL");
  common::log_reset_for_tests();
  EXPECT_TRUE(common::log_once("test-key-a", "first emission"));
  EXPECT_FALSE(common::log_once("test-key-a", "suppressed duplicate"));
  EXPECT_FALSE(common::log_once("test-key-a", "still suppressed"));
  EXPECT_TRUE(common::log_once("test-key-b", "distinct key emits"));
  common::log_reset_for_tests();
  EXPECT_TRUE(common::log_once("test-key-a", "reset re-arms the key"));
  common::log_reset_for_tests();
}

TEST(LogOnce, SilentLevelSuppressesEverything) {
  setenv("SEMCACHE_LOG_LEVEL", "silent", 1);
  common::log_reset_for_tests();  // also re-reads the level
  EXPECT_EQ(common::log_level(), common::LogLevel::kSilent);
  EXPECT_FALSE(common::log_once("test-silent", "must not emit"));
  unsetenv("SEMCACHE_LOG_LEVEL");
  common::log_reset_for_tests();
}

TEST(LogOnce, InfoMessagesGatedByWarnDefault) {
  unsetenv("SEMCACHE_LOG_LEVEL");
  common::log_reset_for_tests();
  EXPECT_EQ(common::log_level(), common::LogLevel::kWarn);
  EXPECT_FALSE(common::log_once("test-info", "info below default level",
                                common::LogLevel::kInfo));
  setenv("SEMCACHE_LOG_LEVEL", "info", 1);
  common::log_reset_for_tests();
  EXPECT_TRUE(common::log_once("test-info", "info now visible",
                               common::LogLevel::kInfo));
  unsetenv("SEMCACHE_LOG_LEVEL");
  common::log_reset_for_tests();
}

// Reference implementation of first-appearance grouping: the plain
// linear scan the hash-indexed fast path must match bit for bit.
template <typename KeyFn>
auto naive_group(std::size_t count, const KeyFn& key_of) {
  using Key = std::decay_t<decltype(key_of(std::size_t{0}))>;
  common::Grouped<Key> out;
  for (std::size_t i = 0; i < count; ++i) {
    const Key key = key_of(i);
    std::size_t g = 0;
    while (g < out.keys.size() && !(out.keys[g] == key)) ++g;
    if (g == out.keys.size()) {
      out.keys.push_back(key);
      out.groups.emplace_back();
    }
    out.groups[g].push_back(i);
  }
  return out;
}

TEST(Grouping, HashIndexedPathMatchesLinearScanAtScale) {
  // Regression: the linear scan was O(n * k) — quadratic in distinct-lane
  // count for city-scale waves. ~10^4 distinct keys with a duplicate-key
  // shuffle must produce the identical partition through the indexed path
  // (first-appearance key order, original index order within groups).
  const std::size_t n = 30000;
  const auto key_of = [](std::size_t i) -> std::uint64_t {
    return (i * 7919u) % 10007u;  // ~10^4 distinct keys, shuffled order
  };
  const auto fast = common::group_by_first_appearance(n, key_of);
  const auto slow = naive_group(n, key_of);
  ASSERT_EQ(fast.keys.size(), 10007u);
  EXPECT_EQ(fast.keys, slow.keys);
  EXPECT_EQ(fast.groups, slow.groups);
}

TEST(Grouping, StringKeysMatchAcrossTheCutoff) {
  // String keys, sized to straddle kGroupingLinearCutoff so the mid-run
  // handover from the scan to the index is covered, with every key
  // recurring after the handover (duplicate-key shuffle).
  for (const std::size_t distinct : {3u, 32u, 33u, 200u}) {
    const auto key_of = [distinct](std::size_t i) {
      return "lane-" + std::to_string((i * 13) % distinct);
    };
    const std::size_t n = distinct * 4;
    const auto fast = common::group_by_first_appearance(n, key_of);
    const auto slow = naive_group(n, key_of);
    ASSERT_EQ(fast.keys.size(), distinct);
    EXPECT_EQ(fast.keys, slow.keys);
    EXPECT_EQ(fast.groups, slow.groups);
  }
}

TEST(Grouping, UnhashableKeysKeepTheLinearPath) {
  // Keys without a std::hash specialization must still group correctly
  // (the indexed path is compiled out for them).
  struct RawKey {
    int v;
    bool operator==(const RawKey& o) const { return v == o.v; }
  };
  const auto key_of = [](std::size_t i) { return RawKey{static_cast<int>(i % 7)}; };
  const auto grouped = common::group_by_first_appearance(100, key_of);
  ASSERT_EQ(grouped.keys.size(), 7u);
  for (std::size_t g = 0; g < grouped.groups.size(); ++g) {
    EXPECT_EQ(grouped.keys[g].v, static_cast<int>(g));
    for (const std::size_t i : grouped.groups[g]) EXPECT_EQ(i % 7, g);
  }
}

}  // namespace
}  // namespace semcache
