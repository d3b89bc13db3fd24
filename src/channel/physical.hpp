// Physical channel models. Two abstraction levels:
//  * SymbolChannel distorts complex symbols (AWGN, Rayleigh block fading);
//  * BitChannel maps bits to bits — either directly (BSC) or by wrapping a
//    modulation + SymbolChannel pair (ModulatedChannel).
// The channel pipeline (pipeline.hpp) only talks to BitChannel.
#pragma once

#include <memory>
#include <span>

#include "channel/modulation.hpp"
#include "common/noise.hpp"
#include "common/rng.hpp"

namespace semcache::channel {

class SymbolChannel {
 public:
  virtual ~SymbolChannel() = default;
  SymbolChannel() = default;
  SymbolChannel(const SymbolChannel&) = delete;
  SymbolChannel& operator=(const SymbolChannel&) = delete;

  /// Distort symbols in place with noise drawn from `noise`. `slot` is the
  /// message's global ordinal (the same ordinal that keys the serving
  /// path's noise stream), which lets a channel with memory — the
  /// Gilbert–Elliott burst model — evolve its state across messages
  /// deterministically under any thread or shard count. Memoryless
  /// channels ignore it. Const: channel parameters are read-only and all
  /// working state lives in the stream, so one channel serves concurrent
  /// messages.
  virtual void distort(std::span<Symbol> symbols, common::NoiseStream& noise,
                       std::uint64_t slot) const = 0;

  /// Rng adapters: key one NoiseStream from `rng` (common::noise_key) and
  /// distort with it.
  void apply(std::vector<Symbol>& symbols, Rng& rng) const {
    apply_slot(symbols, rng, 0);
  }
  void apply_slot(std::vector<Symbol>& symbols, Rng& rng,
                  std::uint64_t slot) const {
    common::NoiseStream noise(common::noise_key(rng));
    distort(symbols, noise, slot);
  }
  virtual std::string name() const = 0;
};

/// Receiver-side channel-quality measurement, filled by the soft transmit
/// path: `noise_power` is the decision-directed error power (mean squared
/// distance from each received symbol to the nearest constellation point),
/// an honest estimate that needs no genie knowledge of the true SNR.
struct ChannelObservation {
  double noise_power = 0.0;
  double snr_est_db = 0.0;  ///< 10 log10(Es / noise_power), Es = 1
};

/// Decision-directed observation over received symbols.
ChannelObservation observe_symbols(const std::vector<Symbol>& received,
                                   Modulation m);

/// Complex additive white Gaussian noise at a given Es/N0.
class AwgnChannel final : public SymbolChannel {
 public:
  explicit AwgnChannel(double snr_db);
  void distort(std::span<Symbol> symbols, common::NoiseStream& noise,
               std::uint64_t slot) const override;
  std::string name() const override;
  double snr_db() const { return snr_db_; }

 private:
  double snr_db_;
  double sigma_;  // per-dimension noise stddev
};

/// Block Rayleigh fading with perfect channel state information at the
/// receiver: per block of `block_len` symbols, y = h x + n, equalized by
/// 1/h (noise enhancement during deep fades is what the interleaver + code
/// must fight — E8).
class RayleighChannel final : public SymbolChannel {
 public:
  RayleighChannel(double snr_db, std::size_t block_len = 32);
  void distort(std::span<Symbol> symbols, common::NoiseStream& noise,
               std::uint64_t slot) const override;
  std::string name() const override;

 private:
  double snr_db_;
  double sigma_;
  std::size_t block_len_;
};

class BitChannel {
 public:
  virtual ~BitChannel() = default;
  BitChannel() = default;
  BitChannel(const BitChannel&) = delete;
  BitChannel& operator=(const BitChannel&) = delete;

  /// Carry `bits` across the channel with noise drawn from `noise` (`slot`
  /// as in SymbolChannel::distort). When `llrs` is non-null and the channel
  /// has a soft output, fills `*llrs` with one LLR per input bit (sign
  /// convention: llr >= 0 decodes to 1, matching the hard slicers) and,
  /// when `obs` is non-null, a decision-directed channel observation, and
  /// returns true. Otherwise — hard mode, or a channel without a soft
  /// output (BSC) — writes the hard decisions to `hard` and returns false.
  /// Const and stream-local like SymbolChannel::distort: ChannelPipeline::
  /// transmit_batch runs per-message passes on a worker pool.
  virtual bool carry(const BitVec& bits, common::NoiseStream& noise,
                     std::uint64_t slot, BitVec& hard,
                     std::vector<float>* llrs,
                     ChannelObservation* obs) const = 0;

  /// Rng adapter: hard decisions at slot 0, noise keyed by one draw.
  BitVec transmit(const BitVec& bits, Rng& rng) const {
    common::NoiseStream noise(common::noise_key(rng));
    BitVec hard;
    carry(bits, noise, 0, hard, nullptr, nullptr);
    return hard;
  }
  virtual std::string name() const = 0;
};

/// Binary symmetric channel: each bit flips independently with probability p.
class BscChannel final : public BitChannel {
 public:
  explicit BscChannel(double flip_probability);
  bool carry(const BitVec& bits, common::NoiseStream& noise,
             std::uint64_t slot, BitVec& hard, std::vector<float>* llrs,
             ChannelObservation* obs) const override;
  std::string name() const override;
  double flip_probability() const { return p_; }

 private:
  double p_;
};

/// Modulate -> symbol channel -> demodulate.
class ModulatedChannel final : public BitChannel {
 public:
  ModulatedChannel(Modulation m, std::unique_ptr<SymbolChannel> channel);
  bool carry(const BitVec& bits, common::NoiseStream& noise,
             std::uint64_t slot, BitVec& hard, std::vector<float>* llrs,
             ChannelObservation* obs) const override;
  std::string name() const override;
  Modulation modulation() const { return mod_; }

 private:
  Modulation mod_;
  std::unique_ptr<SymbolChannel> channel_;
};

/// Theoretical BPSK-over-AWGN bit error rate, Q(sqrt(2*Es/N0)). Used by the
/// property tests to validate the noise model.
double bpsk_awgn_ber(double snr_db);

}  // namespace semcache::channel
