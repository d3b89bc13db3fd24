// Layer replay for the traced run.
//
// After a wave has been served (and timed), its inputs are run again
// through benchmark-owned objects — clones of the general codecs, a
// quantizer, the channel stack split into its stages, a trained selector,
// a synchronizer, and (sharded deployments) a private timing-plane
// simulator — with a span around every call into a layer. The replay
// reads the serving state (buffers, slot models, profiles) but never
// mutates it.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "channel/code.hpp"
#include "channel/interleaver.hpp"
#include "channel/physical.hpp"
#include "edge/network.hpp"
#include "edge/sim.hpp"
#include "fl/sync.hpp"
#include "nn/loss.hpp"
#include "select/selector.hpp"
#include "semantic/codec.hpp"
#include "semantic/quantizer.hpp"
#include "trace.hpp"
#include "workload.hpp"

namespace perfbench {

/// An update the serving wave fired: the sender of pair `pair` fine-tuned
/// its model for `domain`.
struct UpdateEvent {
  std::size_t pair = 0;   ///< wave position of the pair's first enqueue
  std::size_t index = 0;  ///< the message, within its pair's batch, that fired it
  std::size_t domain = 0;
};

/// Span names, shared by the replay and the metric roll-up.
namespace span {
inline constexpr const char* kSelect = "select";
inline constexpr const char* kEncode = "semantic.encode";
inline constexpr const char* kQuantize = "semantic.quantize";
inline constexpr const char* kChannel = "channel";
inline constexpr const char* kChannelCode = "channel.code";
inline constexpr const char* kChannelModulate = "channel.modulate";
inline constexpr const char* kChannelNoise = "channel.noise";
inline constexpr const char* kChannelDemap = "channel.demap";
inline constexpr const char* kChannelDecode = "channel.decode";
inline constexpr const char* kDequantize = "semantic.dequantize";
inline constexpr const char* kDecode = "semantic.decode";
inline constexpr const char* kMismatch = "nn.mismatch";
inline constexpr const char* kFinetune = "semantic.finetune";
inline constexpr const char* kSyncMake = "fl.sync_make";
inline constexpr const char* kEdgeReplay = "edge.replay_drain";
}  // namespace span

class Replayer {
 public:
  /// `what_if_updates`: the run can fire no update (its trigger is above
  /// every message it sends), so the replay prices a what-if fine-tune
  /// every kWhatIfEvery waves instead.
  Replayer(Deployment& deployment, Tracer& tracer, std::uint64_t seed,
           bool what_if_updates);

  /// Replays `wave` under span `parent`. `updates` are the fine-tunes the
  /// serving wave fired, in the order they ran; the first one is replayed.
  void replay(const Wave& wave, std::uint64_t wave_id, std::uint64_t parent,
              const std::vector<UpdateEvent>& updates);

  static constexpr std::size_t kWhatIfEvery = 25;
  static constexpr std::size_t kWhatIfSamples = 24;

  std::size_t messages() const { return messages_; }
  std::size_t channel_messages() const { return channel_messages_; }
  std::uint64_t payload_bits() const { return payload_bits_; }
  std::uint64_t bit_errors() const { return bit_errors_; }
  std::size_t finetunes() const { return finetunes_; }
  std::uint64_t sync_bytes() const { return sync_bytes_; }
  std::uint64_t edge_events() const { return edge_events_; }

 private:
  void replay_update(const PairInput& pair, std::size_t domain,
                     std::size_t max_samples, std::uint64_t wave_id,
                     std::uint64_t parent);
  void replay_timing_plane(const Wave& wave, std::uint64_t wave_id,
                           std::uint64_t parent);

  Deployment& deployment_;
  Tracer& tracer_;
  core::SystemConfig config_;  ///< as resolved by the system's build
  std::vector<std::unique_ptr<semantic::SemanticCodec>> codecs_;
  std::unique_ptr<semantic::FeatureQuantizer> quantizer_;
  std::unique_ptr<channel::ChannelCode> code_;
  channel::BlockInterleaver interleaver_;
  std::unique_ptr<channel::SymbolChannel> medium_;
  bool soft_ = false;
  bool what_if_updates_ = false;
  std::unique_ptr<select::DomainSelector> selector_;
  fl::ModelSynchronizer synchronizer_;
  nn::SoftmaxCrossEntropy ce_;
  Rng rng_;
  // Private timing plane (sharded deployments drain inside their flush).
  edge::StandardTopology topology_;
  edge::Simulator sim_;
  double enc_flops_ = 0.0;
  double dec_flops_ = 0.0;

  std::uint64_t ordinal_ = 0;
  std::size_t messages_ = 0;
  std::size_t channel_messages_ = 0;
  std::uint64_t payload_bits_ = 0;
  std::uint64_t bit_errors_ = 0;
  std::size_t finetunes_ = 0;
  std::uint64_t sync_bytes_ = 0;
  std::uint64_t edge_events_ = 0;
};

}  // namespace perfbench
