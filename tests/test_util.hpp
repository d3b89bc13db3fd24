// Shared helpers for the semcache test suites.
//
// Pulls together the bits every suite was re-inventing inline: a
// seeded-RNG fixture, near-equality comparators for float spans /
// tensors, and the tiny SystemConfig factory used by the trained-system
// suites (test_core, test_failure_injection, test_integration).
#pragma once

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <span>
#include <string>
#include <vector>

#include "channel/pipeline.hpp"
#include "common/bits.hpp"
#include "common/cpu.hpp"
#include "common/rng.hpp"
#include "core/system.hpp"
#include "tensor/tensor.hpp"

namespace semcache::test {

/// Offset added to the fuzz-style suites' seeds (test_sim_wheel,
/// test_faults storms). Unset or empty keeps the historical fixed seeds;
/// the nightly CI job sets SEMCACHE_FUZZ_SEED_BASE to the UTC date so
/// every night explores a fresh seed neighborhood. The first call echoes
/// the resolved base into the log so a red nightly is reproducible.
inline std::uint64_t fuzz_seed_base() {
  static const std::uint64_t base = [] {
    const char* env = std::getenv("SEMCACHE_FUZZ_SEED_BASE");
    std::uint64_t v = 0;
    if (env != nullptr) {
      for (const char* p = env; *p >= '0' && *p <= '9'; ++p) {
        v = v * 10 + static_cast<std::uint64_t>(*p - '0');
      }
    }
    std::cout << "[ fuzz   ] SEMCACHE_FUZZ_SEED_BASE=" << v
              << (env == nullptr ? " (unset)" : "") << std::endl;
    return v;
  }();
  return base;
}

/// Fair-coin random bit vector; the standard payload generator for the
/// channel-stack suites.
inline BitVec random_bits(std::size_t n, Rng& rng) {
  BitVec bits(n);
  for (auto& b : bits) b = rng.bernoulli(0.5) ? 1 : 0;
  return bits;
}

/// Fixture for tests whose only setup is a deterministic RNG. Derive and
/// optionally pass a custom seed from the subclass constructor.
class SeededRngTest : public ::testing::Test {
 protected:
  explicit SeededRngTest(std::uint64_t seed = 42) : rng_(seed) {}
  Rng rng_;
};

/// ChannelPipeline::transmit_batch booking into the pipeline's own stats
/// (collect into a sink, then fold), the way the sequential transmit_at
/// books — what the batch-vs-sequential suites compare against.
inline std::vector<BitVec> transmit_batch_booked(
    channel::ChannelPipeline& pipe, const std::vector<BitVec>& payloads,
    std::span<const std::uint64_t> keys,
    std::span<const std::uint64_t> slots = {},
    common::ThreadPool* pool = nullptr) {
  channel::PipelineStats sink;
  std::vector<BitVec> received =
      pipe.transmit_batch(payloads, keys, slots, sink, pool);
  pipe.fold_stats(sink);
  return received;
}

/// A serving wave of one pair: `messages` from `sender` to `receiver`
/// (SemanticEdgeSystem::transmit_pairs' single-pair shape).
inline std::vector<core::SemanticEdgeSystem::PairBatch> one_pair_wave(
    std::string sender, std::string receiver,
    std::vector<text::Sentence> messages) {
  std::vector<core::SemanticEdgeSystem::PairBatch> wave(1);
  wave[0].sender = std::move(sender);
  wave[0].receiver = std::move(receiver);
  wave[0].messages = std::move(messages);
  return wave;
}

/// Element-wise near-equality over two float spans. Reports the first
/// offending index, the values, and the sizes on failure so EXPECT_TRUE
/// output is directly actionable.
inline ::testing::AssertionResult AllNear(std::span<const float> a,
                                          std::span<const float> b,
                                          double tol) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << "size mismatch: " << a.size() << " vs " << b.size();
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double diff = std::abs(static_cast<double>(a[i]) -
                                 static_cast<double>(b[i]));
    if (!(diff <= tol)) {  // NaN-safe: NaN fails the comparison
      return ::testing::AssertionFailure()
             << "element " << i << ": " << a[i] << " vs " << b[i]
             << " (|diff| = " << diff << " > " << tol << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

/// Tensor overload: shapes must match exactly, values up to `tol`.
inline ::testing::AssertionResult AllNear(const tensor::Tensor& a,
                                          const tensor::Tensor& b,
                                          double tol) {
  if (a.shape() != b.shape()) {
    return ::testing::AssertionFailure() << "shape mismatch";
  }
  return AllNear(std::span<const float>(a.data(), a.size()),
                 std::span<const float>(b.data(), b.size()), tol);
}

/// Bitwise tensor equality (memcmp), naming the first differing element.
inline ::testing::AssertionResult BitEqual(const tensor::Tensor& a,
                                           const tensor::Tensor& b) {
  if (!a.same_shape(b)) {
    return ::testing::AssertionFailure() << "shape mismatch";
  }
  if (std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0) {
    return ::testing::AssertionSuccess();
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::memcmp(&a.data()[i], &b.data()[i], sizeof(float)) != 0) {
      return ::testing::AssertionFailure()
             << "first diff at flat index " << i << ": " << a.data()[i]
             << " vs " << b.data()[i];
    }
  }
  return ::testing::AssertionFailure() << "memcmp/elementwise disagree";
}

/// RAII SIMD-tier override (common::set_simd_tier): restores the prior
/// tier even when an assertion bails out of the test body early.
class TierGuard {
 public:
  explicit TierGuard(common::SimdTier tier)
      : prev_(common::set_simd_tier(tier)) {}
  ~TierGuard() { common::set_simd_tier(prev_); }
  TierGuard(const TierGuard&) = delete;
  TierGuard& operator=(const TierGuard&) = delete;

 private:
  common::SimdTier prev_;
};

/// Codec config sized for a generated world, with the small 16/12/32
/// dims the suites standardize on. Vocab sizes and sentence length come
/// from the world so the config is always consistent with it.
inline semantic::CodecConfig codec_for_world(const text::World& world,
                                             std::size_t embed_dim = 16,
                                             std::size_t feature_dim = 12,
                                             std::size_t hidden_dim = 32) {
  semantic::CodecConfig c;
  c.surface_vocab = world.surface_count();
  c.meaning_vocab = world.meaning_count();
  c.sentence_length = world.config().sentence_length;
  c.embed_dim = embed_dim;
  c.feature_dim = feature_dim;
  c.hidden_dim = hidden_dim;
  return c;
}

/// Tiny SystemConfig shared by the trained-system suites: 2 domains,
/// 6-token sentences, and a small 16/12/32 codec that pretrains in around
/// a second. Callers override world size, pretrain steps, triggers, and
/// selector mode per test; only the common skeleton lives here.
inline core::SystemConfig tiny_system_config(std::uint64_t seed) {
  core::SystemConfig config;
  config.seed = seed;
  config.world.num_domains = 2;
  config.world.sentence_length = 6;
  config.codec.embed_dim = 16;
  config.codec.feature_dim = 12;
  config.codec.hidden_dim = 32;
  return config;
}

}  // namespace semcache::test
