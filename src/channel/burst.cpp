#include "channel/burst.hpp"

#include <cmath>
#include <sstream>

#include "common/check.hpp"
#include "common/hashing.hpp"

namespace semcache::channel {

namespace {
// Kind tags for the identity-hash coins, same discipline as fault_plane.cpp:
// distinct constants so the weather stream and the transition stream never
// collide even under equal (slot, symbol) words.
constexpr std::uint64_t kWeatherTag = 0x6E11B;  // epoch start-state coin
constexpr std::uint64_t kChainTag = 0x6E77;     // per-symbol transition coin

double noise_sigma(double snr_db) {
  return std::sqrt(1.0 / (2.0 * std::pow(10.0, snr_db / 10.0)));
}

bool valid_prob(double p) { return p >= 0.0 && p <= 1.0; }
}  // namespace

GilbertElliottChannel::GilbertElliottChannel(const GilbertElliottConfig& cfg)
    : cfg_(cfg),
      sigma_good_(noise_sigma(cfg.snr_good_db)),
      sigma_bad_(noise_sigma(cfg.snr_bad_db)) {
  SEMCACHE_CHECK(valid_prob(cfg_.p_good_to_bad) &&
                     valid_prob(cfg_.p_bad_to_good) &&
                     valid_prob(cfg_.bad_weather_prob),
                 "gilbert-elliott: probabilities must be in [0, 1]");
  SEMCACHE_CHECK(cfg_.dwell_messages >= 1,
                 "gilbert-elliott: dwell_messages must be >= 1");
}

bool GilbertElliottChannel::starts_bad(std::uint64_t slot) const {
  const std::uint64_t epoch = slot / cfg_.dwell_messages;
  const std::uint64_t h =
      common::identity_mix(cfg_.seed, kWeatherTag, epoch, 0, 0);
  return common::to_unit_interval(h) < cfg_.bad_weather_prob;
}

void GilbertElliottChannel::distort(std::span<Symbol> symbols,
                                    common::NoiseStream& noise,
                                    std::uint64_t slot) const {
  bool bad = starts_bad(slot);
  for (std::size_t s = 0; s < symbols.size(); ++s) {
    const double sigma = bad ? sigma_bad_ : sigma_good_;
    const double re = noise.gaussian();
    const double im = noise.gaussian();
    symbols[s] += Symbol(sigma * re, sigma * im);
    // Transition AFTER the symbol so the epoch weather governs symbol 0.
    // The coin is keyed, not drawn from `noise`: the chain path is a pure
    // function of (seed, slot, s), and the stream spends exactly two
    // gaussians per symbol regardless of the path taken.
    const double u = common::to_unit_interval(
        common::identity_mix(cfg_.seed, kChainTag, slot, s, bad ? 1 : 0));
    if (bad) {
      if (u < cfg_.p_bad_to_good) bad = false;
    } else {
      if (u < cfg_.p_good_to_bad) bad = true;
    }
  }
}

std::string GilbertElliottChannel::name() const {
  std::ostringstream os;
  os << "gilbert_elliott(" << cfg_.snr_good_db << "/" << cfg_.snr_bad_db
     << "dB,dwell" << cfg_.dwell_messages << ")";
  return os.str();
}

}  // namespace semcache::channel
