#include "replay.hpp"

#include <algorithm>
#include <cstring>
#include <limits>

#include "channel/burst.hpp"
#include "channel/modulation.hpp"
#include "channel/pipeline.hpp"
#include "select/context.hpp"
#include "select/naive_bayes.hpp"
#include "semantic/trainer.hpp"
#include "tensor/ops.hpp"

namespace perfbench {

namespace {

/// One (pair, domain) group of a wave: the unit the serving path batches.
struct Group {
  std::size_t pair = 0;
  std::size_t domain = 0;
  bool cross_edge = false;
  std::vector<std::size_t> msgs;  ///< indices into the pair's messages
  std::vector<std::int32_t> surfaces;
  tensor::Tensor features;
  std::vector<BitVec> payloads;
  std::vector<BitVec> received;
  tensor::Tensor rx_features;
  tensor::Tensor logits;
};

/// One message on the air: the channel stages' intermediate values.
struct AirJob {
  Group* group = nullptr;
  std::size_t row = 0;
  std::uint64_t slot = 0;
  BitVec coded;
  BitVec sent;
  std::vector<channel::Symbol> symbols;
  BitVec hard;
  std::vector<float> llrs;
};

}  // namespace

Replayer::Replayer(Deployment& deployment, Tracer& tracer, std::uint64_t seed,
                   bool what_if_updates)
    : deployment_(deployment),
      tracer_(tracer),
      config_(deployment.front().config()),
      interleaver_(config_.channel.interleave_depth),
      what_if_updates_(what_if_updates),
      synchronizer_(config_.sync_compression),
      rng_(Rng(seed).fork(0x4E91A7)) {
  core::SemanticEdgeSystem& front = deployment.front();
  const std::size_t domains = front.world().num_domains();
  for (std::size_t d = 0; d < domains; ++d) {
    codecs_.push_back(front.general_model(d).clone());
  }
  quantizer_ = std::make_unique<semantic::FeatureQuantizer>(
      config_.codec.feature_dim, config_.feature_bits);

  const core::ChannelConfig& ch = config_.channel;
  code_ = channel::make_code(ch.code);
  if (ch.medium == "gilbert_elliott") {
    channel::GilbertElliottConfig burst = ch.burst;
    if (burst.seed == 0) burst.seed = config_.seed;
    medium_ = std::make_unique<channel::GilbertElliottChannel>(burst);
  } else {
    medium_ = std::make_unique<channel::AwgnChannel>(ch.snr_db);
  }
  soft_ = channel::resolve_soft_decision(ch.soft_decision);

  // A selector trained the way the system trains its own (400 examples
  // per domain), from the replay's own stream.
  auto nb = std::make_unique<select::NaiveBayesSelector>(
      front.world().surface_count(), domains);
  Rng sel_rng = Rng(seed).fork(0x5E1EC7);
  for (std::size_t i = 0; i < 400 * domains; ++i) {
    const auto d = static_cast<std::size_t>(
        sel_rng.uniform_int(0, static_cast<std::int64_t>(domains) - 1));
    nb->observe(front.world().sample_sentence(d, sel_rng).surface, d);
  }
  if (config_.selector == "context") {
    selector_ = std::make_unique<select::ContextSelector>(std::move(nb),
                                                          domains);
  } else {
    selector_ = std::move(nb);
  }

  if (deployment.sharded()) {
    topology_ = edge::build_standard_topology(
        config_.num_edges, config_.devices_per_edge, config_.topology);
    enc_flops_ = 2.0 * static_cast<double>(
                           codecs_[0]->encoder().parameters().scalar_count());
    dec_flops_ = 2.0 * static_cast<double>(
                           codecs_[0]->decoder().parameters().scalar_count());
  }
}

void Replayer::replay(const Wave& wave, std::uint64_t wave_id,
                      std::uint64_t parent,
                      const std::vector<UpdateEvent>& updates) {
  const Tracer::Scope root(tracer_, "replay", parent, wave_id);
  const std::uint64_t rid = root.id();
  const std::size_t length = config_.codec.sentence_length;
  const std::size_t vocab = config_.codec.meaning_vocab;

  // Group each pair's messages by domain, as the serving path batches them.
  std::vector<Group> groups;
  for (std::size_t p = 0; p < wave.size(); ++p) {
    core::SemanticEdgeSystem& sys = deployment_.system_for(wave[p].sender);
    const bool cross = sys.user(wave[p].sender).edge_index !=
                       sys.user(wave[p].receiver).edge_index;
    const std::size_t first = groups.size();
    for (std::size_t i = 0; i < wave[p].messages.size(); ++i) {
      const text::Sentence& m = wave[p].messages[i];
      auto it = std::find_if(groups.begin() + static_cast<std::ptrdiff_t>(first),
                             groups.end(),
                             [&](const Group& g) { return g.domain == m.domain; });
      if (it == groups.end()) {
        groups.push_back({});
        groups.back().pair = p;
        groups.back().domain = m.domain;
        groups.back().cross_edge = cross;
        it = groups.end() - 1;
      }
      it->msgs.push_back(i);
      it->surfaces.insert(it->surfaces.end(), m.surface.begin(),
                          m.surface.end());
    }
    messages_ += wave[p].messages.size();
  }

  {
    const Tracer::Scope s(tracer_, span::kSelect, rid, wave_id);
    for (const PairInput& pair : wave) {
      for (const text::Sentence& m : pair.messages) {
        (void)selector_->select(m.surface);
      }
    }
  }
  {
    const Tracer::Scope s(tracer_, span::kEncode, rid, wave_id);
    for (Group& g : groups) {
      g.features =
          codecs_[g.domain]->encoder().encode_batch(g.surfaces, g.msgs.size());
    }
  }
  {
    const Tracer::Scope s(tracer_, span::kQuantize, rid, wave_id);
    for (Group& g : groups) g.payloads = quantizer_->quantize_batch(g.features);
  }

  // Channel, stage by stage over every message that crosses the backbone.
  std::vector<AirJob> jobs;
  for (Group& g : groups) {
    g.received = g.payloads;
    if (!g.cross_edge) continue;
    for (std::size_t r = 0; r < g.msgs.size(); ++r) {
      jobs.push_back({});
      jobs.back().group = &g;
      jobs.back().row = r;
      jobs.back().slot = ordinal_++;
    }
  }
  const channel::Modulation mod = config_.channel.modulation;
  {
    const Tracer::Scope ch(tracer_, span::kChannel, rid, wave_id);
    {
      const Tracer::Scope s(tracer_, span::kChannelCode, ch.id(), wave_id);
      for (AirJob& j : jobs) {
        j.coded = code_->encode(j.group->payloads[j.row]);
        j.sent = interleaver_.interleave(j.coded);
      }
    }
    {
      const Tracer::Scope s(tracer_, span::kChannelModulate, ch.id(), wave_id);
      for (AirJob& j : jobs) j.symbols = channel::modulate(j.sent, mod);
    }
    {
      const Tracer::Scope s(tracer_, span::kChannelNoise, ch.id(), wave_id);
      for (AirJob& j : jobs) {
        Rng noise = rng_.fork(j.slot);
        medium_->apply_slot(j.symbols, noise, j.slot);
      }
    }
    {
      const Tracer::Scope s(tracer_, span::kChannelDemap, ch.id(), wave_id);
      for (AirJob& j : jobs) {
        if (soft_) {
          channel::demap_soft_into(j.llrs, j.symbols.data(), j.symbols.size(),
                                   mod);
          j.llrs.resize(j.sent.size());
        } else {
          channel::demap_into(j.hard, j.symbols.data(), j.symbols.size(), mod);
          j.hard.resize(j.sent.size());
        }
      }
    }
    {
      const Tracer::Scope s(tracer_, span::kChannelDecode, ch.id(), wave_id);
      for (AirJob& j : jobs) {
        BitVec decoded;
        if (soft_) {
          std::vector<float> llrs = interleaver_.deinterleave(j.llrs);
          llrs.resize(j.coded.size());
          decoded = code_->decode_soft(llrs);
        } else {
          BitVec bits = interleaver_.deinterleave(j.hard);
          bits.resize(j.coded.size());
          decoded = code_->decode(bits);
        }
        decoded.resize(j.group->payloads[j.row].size());
        j.group->received[j.row] = std::move(decoded);
      }
    }
  }
  for (const AirJob& j : jobs) {
    const BitVec& sent = j.group->payloads[j.row];
    const BitVec& got = j.group->received[j.row];
    for (std::size_t b = 0; b < sent.size(); ++b) bit_errors_ += sent[b] != got[b];
    payload_bits_ += sent.size();
  }
  channel_messages_ += jobs.size();

  {
    const Tracer::Scope s(tracer_, span::kDequantize, rid, wave_id);
    for (Group& g : groups) {
      g.rx_features = quantizer_->dequantize_batch(g.received);
    }
  }
  {
    const Tracer::Scope s(tracer_, span::kDecode, rid, wave_id);
    for (Group& g : groups) {
      g.logits = codecs_[g.domain]->decoder().decode_logits_batch(g.rx_features);
      (void)tensor::row_argmax(g.logits);
    }
  }
  {
    const Tracer::Scope s(tracer_, span::kMismatch, rid, wave_id);
    tensor::Tensor slice({length, vocab});
    for (const Group& g : groups) {
      for (std::size_t r = 0; r < g.msgs.size(); ++r) {
        std::memcpy(slice.data(), g.logits.data() + r * length * vocab,
                    length * vocab * sizeof(float));
        ce_.forward(slice, wave[g.pair].messages[g.msgs[r]].meanings);
      }
    }
  }

  if (!updates.empty()) {
    replay_update(wave[updates.front().pair], updates.front().domain,
                  std::numeric_limits<std::size_t>::max(), wave_id, rid);
  } else if (what_if_updates_ && wave_id % kWhatIfEvery == 0) {
    // Off-path what-if: what one update would cost on this traffic.
    replay_update(wave.front(), wave.front().messages.front().domain,
                  kWhatIfSamples, wave_id, rid);
  }
  if (deployment_.sharded()) replay_timing_plane(wave, wave_id, rid);
}

void Replayer::replay_update(const PairInput& pair, std::size_t domain,
                             std::size_t max_samples, std::uint64_t wave_id,
                             std::uint64_t parent) {
  core::SemanticEdgeSystem& sys = deployment_.system_for(pair.sender);
  core::UserModelSlot* slot =
      sys.edge_state(sys.user(pair.sender).edge_index)
          .find_slot(pair.sender, domain);
  if (slot == nullptr || slot->buffer == nullptr || slot->buffer->size() == 0) {
    return;
  }
  std::span<const semantic::Sample> samples = slot->buffer->samples();
  if (samples.size() > max_samples) samples = samples.last(max_samples);
  const std::unique_ptr<semantic::SemanticCodec> scratch = slot->model->clone();
  const std::vector<float> before =
      scratch->decoder().parameters().flatten_values();
  Rng ft_rng = rng_.fork(0xF17E ^ finetunes_);
  {
    const Tracer::Scope s(tracer_, span::kFinetune, parent, wave_id);
    semantic::CodecTrainer::finetune(
        *scratch, samples, config_.finetune_epochs, config_.finetune_lr,
        ft_rng, config_.pretrain.feature_noise, config_.finetune_batch_size);
  }
  const std::vector<float> after =
      scratch->decoder().parameters().flatten_values();
  {
    const Tracer::Scope s(tracer_, span::kSyncMake, parent, wave_id);
    const fl::SyncMessage msg = synchronizer_.make_message(
        before, after, pair.sender, static_cast<std::uint32_t>(domain), 1);
    sync_bytes_ += msg.byte_size();
  }
  ++finetunes_;
}

void Replayer::replay_timing_plane(const Wave& wave, std::uint64_t wave_id,
                                   std::uint64_t parent) {
  const Tracer::Scope s(tracer_, span::kEdgeReplay, parent, wave_id);
  edge::Network& net = *topology_.net;
  const std::size_t before = sim_.processed();
  // 8-byte message header and 2-byte tokens, as the serving path books them.
  const std::size_t payload = quantizer_->payload_bytes() + 8;
  for (const PairInput& pair : wave) {
    core::SemanticEdgeSystem& sys = deployment_.system_for(pair.sender);
    const core::UserProfile& sp = sys.user(pair.sender);
    const core::UserProfile& rp = sys.user(pair.receiver);
    const edge::NodeId s_edge = topology_.edges[sp.edge_index];
    const edge::NodeId r_edge = topology_.edges[rp.edge_index];
    const edge::NodeId r_dev = rp.device;
    const bool cross = sp.edge_index != rp.edge_index;
    for (const text::Sentence& m : pair.messages) {
      const std::size_t bytes = 8 + 2 * m.surface.size();
      // uplink -> encode -> backbone -> decode -> downlink, as served.
      auto downlink = [this, &net, r_edge, r_dev, bytes] {
        net.link(r_edge, r_dev).send_concurrent(sim_, bytes, [] {});
      };
      auto decode = [this, &net, r_edge, downlink] {
        net.node(r_edge).submit_compute(sim_, dec_flops_, downlink);
      };
      auto backbone = [this, &net, cross, s_edge, r_edge, payload, decode] {
        if (cross) {
          net.link(s_edge, r_edge).send_concurrent(sim_, payload, decode);
        } else {
          decode();
        }
      };
      auto encode = [this, &net, s_edge, backbone] {
        net.node(s_edge).submit_compute(sim_, enc_flops_, backbone);
      };
      net.link(sp.device, s_edge).send_concurrent(sim_, bytes, encode);
    }
  }
  sim_.run();
  edge_events_ += sim_.processed() - before;
}

}  // namespace perfbench
