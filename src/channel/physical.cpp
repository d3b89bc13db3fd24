#include "channel/physical.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <vector>

#include "common/check.hpp"

namespace semcache::channel {

namespace {
double snr_db_to_linear(double snr_db) { return std::pow(10.0, snr_db / 10.0); }

/// Per-dimension noise stddev for unit-energy symbols at Es/N0 = snr.
double noise_sigma(double snr_db) {
  return std::sqrt(1.0 / (2.0 * snr_db_to_linear(snr_db)));
}
}  // namespace

AwgnChannel::AwgnChannel(double snr_db)
    : snr_db_(snr_db), sigma_(noise_sigma(snr_db)) {}

void AwgnChannel::distort(std::span<Symbol> symbols,
                          common::NoiseStream& noise,
                          std::uint64_t /*slot*/) const {
  // One gaussian per dimension in symbol order: re, then im.
  for (Symbol& s : symbols) {
    const double re = noise.gaussian();
    const double im = noise.gaussian();
    s += Symbol(sigma_ * re, sigma_ * im);
  }
}

std::string AwgnChannel::name() const {
  std::ostringstream os;
  os << "awgn(" << snr_db_ << "dB)";
  return os.str();
}

RayleighChannel::RayleighChannel(double snr_db, std::size_t block_len)
    : snr_db_(snr_db), sigma_(noise_sigma(snr_db)), block_len_(block_len) {
  SEMCACHE_CHECK(block_len >= 1, "rayleigh: block_len must be >= 1");
}

void RayleighChannel::distort(std::span<Symbol> symbols,
                              common::NoiseStream& noise,
                              std::uint64_t /*slot*/) const {
  const double fade_sigma = std::sqrt(0.5);
  for (std::size_t start = 0; start < symbols.size(); start += block_len_) {
    // h ~ CN(0, 1): real/imag each N(0, 1/2).
    const double h_re = noise.gaussian();
    const double h_im = noise.gaussian();
    const Symbol h(fade_sigma * h_re, fade_sigma * h_im);
    // Guard against pathological zero fades (equalizer would blow up).
    const Symbol h_safe = std::abs(h) < 1e-6 ? Symbol(1e-6, 0.0) : h;
    const std::size_t end = std::min(start + block_len_, symbols.size());
    for (std::size_t i = start; i < end; ++i) {
      Symbol y = h_safe * symbols[i];
      const double n_re = noise.gaussian();
      const double n_im = noise.gaussian();
      y += Symbol(sigma_ * n_re, sigma_ * n_im);
      symbols[i] = y / h_safe;  // perfect-CSI zero-forcing equalizer
    }
  }
}

std::string RayleighChannel::name() const {
  std::ostringstream os;
  os << "rayleigh(" << snr_db_ << "dB,b" << block_len_ << ")";
  return os.str();
}

BscChannel::BscChannel(double flip_probability) : p_(flip_probability) {
  SEMCACHE_CHECK(p_ >= 0.0 && p_ <= 0.5,
                 "bsc: flip probability must be in [0, 0.5]");
}

bool BscChannel::carry(const BitVec& bits, common::NoiseStream& noise,
                       std::uint64_t /*slot*/, BitVec& hard,
                       std::vector<float>* /*llrs*/,
                       ChannelObservation* /*obs*/) const {
  // No soft output: always hard, one uniform per bit.
  hard = bits;
  for (std::uint8_t& b : hard) {
    if (noise.uniform() < p_) b ^= 1;
  }
  return false;
}

std::string BscChannel::name() const {
  std::ostringstream os;
  os << "bsc(" << p_ << ")";
  return os.str();
}

ModulatedChannel::ModulatedChannel(Modulation m,
                                   std::unique_ptr<SymbolChannel> channel)
    : mod_(m), channel_(std::move(channel)) {
  SEMCACHE_CHECK(channel_ != nullptr, "modulated channel: null symbol channel");
}

bool ModulatedChannel::carry(const BitVec& bits, common::NoiseStream& noise,
                             std::uint64_t slot, BitVec& hard,
                             std::vector<float>* llrs,
                             ChannelObservation* obs) const {
  std::vector<Symbol> symbols = modulate(bits, mod_);
  channel_->distort(symbols, noise, slot);
  if (llrs == nullptr) {
    hard = demodulate(symbols, mod_, bits.size());
    return false;
  }
  demap_soft_into(*llrs, symbols.data(), symbols.size(), mod_);
  llrs->resize(bits.size());  // drop LLRs of modulation pad bits
  if (obs != nullptr) *obs = observe_symbols(symbols, mod_);
  return true;
}

ChannelObservation observe_symbols(const std::vector<Symbol>& received,
                                   Modulation m) {
  ChannelObservation obs;
  if (received.empty()) return obs;
  // Slice each received symbol to the nearest constellation point and
  // measure the residual power — decision-directed, no genie SNR.
  const std::size_t bit_count = received.size() * bits_per_symbol(m);
  const BitVec sliced = demodulate(received, m, bit_count);
  const std::vector<Symbol> nearest = modulate(sliced, m);
  double err = 0.0;
  for (std::size_t i = 0; i < received.size(); ++i) {
    err += std::norm(received[i] - nearest[i]);
  }
  obs.noise_power = err / static_cast<double>(received.size());
  obs.snr_est_db = 10.0 * std::log10(1.0 / std::max(obs.noise_power, 1e-9));
  return obs;
}

std::string ModulatedChannel::name() const {
  return modulation_name(mod_) + "/" + channel_->name();
}

double bpsk_awgn_ber(double snr_db) {
  const double snr = snr_db_to_linear(snr_db);
  return 0.5 * std::erfc(std::sqrt(snr));  // Q(sqrt(2x)) = erfc(sqrt(x))/2
}

}  // namespace semcache::channel
