// Distribution tests for the counter-keyed channel noise (common/noise.hpp).
//
// Every serving-path noise sample comes from NoiseStream::gaussian, so this
// suite checks the sampler itself against N(0, 1) — moments, a
// Kolmogorov–Smirnov test over 10^6 draws, the |x| > 3 and |x| > 4 tail
// masses, cross-stream independence for adjacent keys — and then the
// channel built on it against the closed-form BPSK/AWGN bit error rate.
// The sampler is scalar code on every SIMD tier, so there is one tier to
// test. Streams are keyed, so every statistic here is deterministic: a
// bound that holds holds on every run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "channel/modulation.hpp"
#include "channel/physical.hpp"
#include "channel/pipeline.hpp"
#include "common/noise.hpp"

namespace semcache::common {
namespace {

constexpr std::size_t kDraws = 1000000;

std::vector<double> draw_normals(std::uint64_t key, std::size_t n) {
  NoiseStream s(key);
  std::vector<double> out(n);
  for (double& v : out) v = s.gaussian();
  return out;
}

double normal_cdf(double x) { return 0.5 * std::erfc(-x / std::sqrt(2.0)); }

/// Binomial count of `hits` in `n` trials within 4 sigma of n * p.
::testing::AssertionResult WithinBinomial4Sigma(std::size_t hits,
                                                std::size_t n, double p) {
  const double mean = static_cast<double>(n) * p;
  const double sigma = std::sqrt(static_cast<double>(n) * p * (1.0 - p));
  if (std::fabs(static_cast<double>(hits) - mean) <= 4.0 * sigma) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << hits << " hits, expected " << mean << " +- " << 4.0 * sigma;
}

TEST(NoiseStream, PortableMathMatchesLibm) {
  for (const double x : {-700.0, -30.0, -5.5, -1.0, -0.25, -1e-9, 0.0}) {
    EXPECT_NEAR(detail::portable_exp(x), std::exp(x), 4e-16 * std::exp(x))
        << x;
  }
  for (const double x : {0x1.0p-53, 1e-9, 0.013, 0.5, 0.999, 1.0, 7.0}) {
    EXPECT_NEAR(detail::portable_log(x), std::log(x),
                4e-16 * std::max(1.0, std::fabs(std::log(x))))
        << x;
  }
}

TEST(NoiseStream, ZigguratLayersHaveEqualArea) {
  // Every layer of the table covers the common area V: rectangle layers
  // x[i] * (f(x[i+1]) - f(x[i])) for i >= 1, and the base strip plus tail
  // x[0] * f(R) by construction.
  const detail::ZigguratTable& z = detail::kZiggurat;
  const auto f = [](double x) { return std::exp(-0.5 * x * x); };
  for (int i = 1; i < 128; ++i) {
    const double area = z.x[i] * (f(z.x[i + 1]) - f(z.x[i]));
    EXPECT_NEAR(area, detail::kZigguratV, 1e-9) << "layer " << i;
  }
  EXPECT_NEAR(z.x[0] * f(detail::kZigguratR), detail::kZigguratV, 1e-15);
}

TEST(NoiseStream, GaussianMoments) {
  const std::vector<double> x = draw_normals(0x5EED, kDraws);
  double sum = 0.0;
  double sq = 0.0;
  double cube = 0.0;
  double quad = 0.0;
  for (const double v : x) {
    sum += v;
    sq += v * v;
    cube += v * v * v;
    quad += v * v * v * v;
  }
  const double n = static_cast<double>(kDraws);
  // Standard errors at n = 10^6: mean 1e-3, variance sqrt(2/n) = 1.4e-3,
  // third moment sqrt(15/n) = 3.9e-3, fourth moment sqrt(96/n) = 9.8e-3;
  // every bound is 4 standard errors.
  EXPECT_NEAR(sum / n, 0.0, 4e-3);
  EXPECT_NEAR(sq / n, 1.0, 5.7e-3);
  EXPECT_NEAR(cube / n, 0.0, 1.6e-2);
  EXPECT_NEAR(quad / n, 3.0, 3.9e-2);
}

TEST(NoiseStream, KolmogorovSmirnovAgainstStandardNormal) {
  for (const std::uint64_t key : {std::uint64_t{1}, std::uint64_t{0xC4A2},
                                  channel::message_noise_key(42, 0)}) {
    std::vector<double> x = draw_normals(key, kDraws);
    std::sort(x.begin(), x.end());
    double d = 0.0;
    const double n = static_cast<double>(kDraws);
    for (std::size_t i = 0; i < kDraws; ++i) {
      const double cdf = normal_cdf(x[i]);
      d = std::max(d, std::max(cdf - static_cast<double>(i) / n,
                               static_cast<double>(i + 1) / n - cdf));
    }
    // Critical value of the one-sample KS statistic at alpha = 0.001.
    EXPECT_LT(d, 1.95 / std::sqrt(n)) << "key " << key;
  }
}

TEST(NoiseStream, TailMassesMatchNormal) {
  const std::vector<double> x = draw_normals(0x7A11, kDraws);
  std::size_t beyond3 = 0;
  std::size_t beyond4 = 0;
  for (const double v : x) {
    beyond3 += std::fabs(v) > 3.0 ? 1 : 0;
    beyond4 += std::fabs(v) > 4.0 ? 1 : 0;
  }
  // P(|x| > t) = erfc(t / sqrt 2): 2.70e-3 and 6.33e-5.
  EXPECT_TRUE(WithinBinomial4Sigma(beyond3, kDraws,
                                   std::erfc(3.0 / std::sqrt(2.0))));
  EXPECT_TRUE(WithinBinomial4Sigma(beyond4, kDraws,
                                   std::erfc(4.0 / std::sqrt(2.0))));
  // The tail sampler beyond R = 3.44 must be reached and be symmetric.
  std::size_t pos = 0;
  std::size_t neg = 0;
  for (const double v : x) {
    pos += v > detail::kZigguratR ? 1 : 0;
    neg += v < -detail::kZigguratR ? 1 : 0;
  }
  const double p_tail = 0.5 * std::erfc(detail::kZigguratR / std::sqrt(2.0));
  EXPECT_TRUE(WithinBinomial4Sigma(pos, kDraws, p_tail));
  EXPECT_TRUE(WithinBinomial4Sigma(neg, kDraws, p_tail));
}

TEST(NoiseStream, AdjacentKeysUncorrelated) {
  constexpr std::size_t n = 200000;
  const auto correlation = [](const std::vector<double>& a,
                              const std::vector<double>& b) {
    double ab = 0.0;
    double aa = 0.0;
    double bb = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
      ab += a[i] * b[i];
      aa += a[i] * a[i];
      bb += b[i] * b[i];
    }
    return ab / std::sqrt(aa * bb);
  };
  // 4 / sqrt(n): four standard errors of a sample correlation under
  // independence.
  const double bound = 4.0 / std::sqrt(static_cast<double>(n));
  for (const std::uint64_t key : {std::uint64_t{0}, std::uint64_t{1000}}) {
    // Raw adjacent keys (the hardest case for a counter-based stream) and
    // the serving path's keys for adjacent message ordinals.
    EXPECT_LT(std::fabs(correlation(draw_normals(key, n),
                                    draw_normals(key + 1, n))),
              bound)
        << "raw key " << key;
    EXPECT_LT(std::fabs(correlation(
                  draw_normals(channel::message_noise_key(42, key), n),
                  draw_normals(channel::message_noise_key(42, key + 1), n))),
              bound)
        << "message ordinal " << key;
  }
  // Within one stream, lag-1 draws are uncorrelated too.
  const std::vector<double> x = draw_normals(77, n + 1);
  const std::vector<double> head(x.begin(), x.end() - 1);
  const std::vector<double> tail(x.begin() + 1, x.end());
  EXPECT_LT(std::fabs(correlation(head, tail)), bound);
}

TEST(NoiseStream, AwgnBerMatchesBpskTheory) {
  // BPSK over the keyed AWGN channel against Q(sqrt(2 Es/N0)); counts sit
  // within 4 binomial sigma. Chunked so no buffer exceeds 10^5 symbols;
  // 10 dB needs 4 * 10^6 bits to see ~15 errors.
  for (const auto& [snr_db, bits] :
       {std::pair{4.0, std::size_t{1000000}},
        std::pair{7.0, std::size_t{1000000}},
        std::pair{10.0, std::size_t{4000000}}}) {
    channel::ModulatedChannel ch(
        channel::Modulation::kBpsk,
        std::make_unique<channel::AwgnChannel>(snr_db));
    constexpr std::size_t kChunk = 100000;
    const BitVec zeros(kChunk, 0);
    std::size_t errors = 0;
    for (std::size_t c = 0; c < bits / kChunk; ++c) {
      NoiseStream noise(channel::message_noise_key(9, c));
      BitVec hard;
      ch.carry(zeros, noise, c, hard, nullptr, nullptr);
      errors += static_cast<std::size_t>(
          std::count(hard.begin(), hard.end(), std::uint8_t{1}));
    }
    EXPECT_TRUE(
        WithinBinomial4Sigma(errors, bits, channel::bpsk_awgn_ber(snr_db)))
        << snr_db << " dB";
  }
}

}  // namespace
}  // namespace semcache::common
