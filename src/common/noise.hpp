// Counter-keyed noise streams for the channel plane.
//
// A NoiseStream is a counter-based generator in the sense of Salmon et al.,
// "Parallel Random Numbers: As Easy as 1, 2, 3" (SC'11): its whole state is
// one word, key + counter * gamma, and draw i is the splitmix64 finalizer of
// that word. Keying a message's stream by the message's identity (system
// seed, global message ordinal — see channel::message_noise_key) makes its
// noise a pure function of that identity: there is no per-message engine to
// seed and nothing shared between messages, so batched, pooled and sharded
// serving draw the same samples for the same message.
//
// Normals come from a 128-layer ziggurat (Marsaglia & Tsang, "The Ziggurat
// Method for Generating Random Variables", 2000) in Doornik's formulation
// ("An Improved Ziggurat Method", 2005): one 64-bit draw supplies both the
// layer index (low 7 bits) and the signed uniform (top 53 bits). The layer
// table is computed at compile time and the rare wedge and tail tests use
// the in-header exp/log below, so the samples depend on no standard-library
// distribution or libm algorithm.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>

#include "common/hashing.hpp"
#include "common/rng.hpp"

namespace semcache::common {

namespace detail {

// ln 2 split so k * kLn2Hi is exact for |k| < 2^20 (the fdlibm constants).
inline constexpr double kLn2Hi = 6.93147180369123816490e-01;
inline constexpr double kLn2Lo = 1.90821492927058770002e-10;

/// exp(x) in plain double arithmetic: x = k ln2 + r with |r| <= ln2 / 2,
/// a 20-term Taylor series for e^r, then k exact doublings or halvings.
/// Relative error ~1e-16 for x <= 0, the only domain the ziggurat uses.
constexpr double portable_exp(double x) {
  if (x < -745.0) return 0.0;
  const double kd = x * 1.4426950408889634;
  const auto k = static_cast<long long>(kd < 0.0 ? kd - 0.5 : kd + 0.5);
  const double r = (x - static_cast<double>(k) * kLn2Hi) -
                   static_cast<double>(k) * kLn2Lo;
  double term = 1.0;
  double sum = 1.0;
  for (int n = 1; n < 20; ++n) {
    term *= r / n;
    sum += term;
  }
  for (long long i = 0; i < k; ++i) sum *= 2.0;
  for (long long i = 0; i > k; --i) sum *= 0.5;
  return sum;
}

/// log(x) for x > 0: exact power-of-two reduction to m in [1/sqrt2, sqrt2],
/// then log m = 2 atanh((m - 1) / (m + 1)) by its odd series.
constexpr double portable_log(double x) {
  long long e = 0;
  double m = x;
  while (m > 1.4142135623730951) {
    m *= 0.5;
    ++e;
  }
  while (m < 0.7071067811865476) {
    m *= 2.0;
    --e;
  }
  const double s = (m - 1.0) / (m + 1.0);
  const double s2 = s * s;
  double term = s;
  double sum = 0.0;
  for (int n = 1; n < 40; n += 2) {
    sum += term / n;
    term *= s2;
  }
  return 2.0 * sum + static_cast<double>(e) * kLn2Hi +
         static_cast<double>(e) * kLn2Lo;
}

/// sqrt(x) for x > 0 by Newton's iteration (table construction only).
constexpr double portable_sqrt(double x) {
  double y = x < 1.0 ? 1.0 : x;
  for (int i = 0; i < 200; ++i) {
    const double next = 0.5 * (y + x / y);
    if (next == y) break;
    y = next;
  }
  return y;
}

/// Layer geometry of the 128-layer normal ziggurat: x[i] is the right edge
/// of layer i (x[0] is the base strip's virtual width V / f(R), x[1] = R,
/// x[128] = 0) and ratio[i] = x[i+1] / x[i] is the fraction of layer i
/// lying entirely under the density.
struct ZigguratTable {
  double x[129];
  double ratio[128];
};

inline constexpr double kZigguratR = 3.442619855899;        // tail start
inline constexpr double kZigguratV = 9.91256303526217e-3;   // layer area

constexpr ZigguratTable make_ziggurat() {
  ZigguratTable t{};
  double f = portable_exp(-0.5 * kZigguratR * kZigguratR);
  t.x[0] = kZigguratV / f;
  t.x[1] = kZigguratR;
  t.x[128] = 0.0;
  for (int i = 2; i < 128; ++i) {
    t.x[i] = portable_sqrt(-2.0 * portable_log(kZigguratV / t.x[i - 1] + f));
    f = portable_exp(-0.5 * t.x[i] * t.x[i]);
  }
  for (int i = 0; i < 128; ++i) t.ratio[i] = t.x[i + 1] / t.x[i];
  return t;
}

/// Constant-initialized (defined in noise.cpp), so it is valid before any
/// dynamic initializer runs.
extern const ZigguratTable kZiggurat;

}  // namespace detail

class NoiseStream {
 public:
  explicit constexpr NoiseStream(std::uint64_t key) : state_(key) {}

  /// Next 64 random bits: splitmix64 of key + (draws so far + 1) * gamma.
  constexpr std::uint64_t next() { return splitmix64_step(state_); }
  /// Uniform double in [0, 1).
  constexpr double uniform() { return to_unit_interval(next()); }

  /// Standard normal draw. About 98.8% of draws return from the first
  /// rectangle test below; the rest take the out-of-line wedge/tail path.
  double gaussian() {
    const std::uint64_t h = next();
    const std::size_t layer = h & 0x7F;
    const double u = 2.0 * to_unit_interval(h) - 1.0;
    if (std::fabs(u) < detail::kZiggurat.ratio[layer]) {
      return u * detail::kZiggurat.x[layer];
    }
    return gaussian_slow(layer, u);
  }

 private:
  /// Wedge rejection (layers 1..127) or the Marsaglia tail (layer 0) for a
  /// draw that missed its rectangle; retries with fresh draws until one is
  /// accepted.
  double gaussian_slow(std::size_t layer, double u);

  std::uint64_t state_;
};

/// Key a NoiseStream from a caller-owned Rng: exactly one 64-bit draw. The
/// Rng-taking channel entry points (SymbolChannel::apply, BitChannel::
/// transmit, ChannelPipeline::transmit/transmit_at) all derive their
/// stream this way, so `NoiseStream(noise_key(rng_copy))` reproduces them.
inline std::uint64_t noise_key(Rng& rng) { return rng.engine()(); }

}  // namespace semcache::common
