#include "workload.hpp"

#include "semantic/codec.hpp"

namespace perfbench {

namespace {

/// The 4-domain standard world and the 20/16/48 codec every workload uses.
core::SystemConfig standard_config() {
  core::SystemConfig c;
  c.world.num_domains = 4;
  c.world.concepts_per_domain = 20;
  c.world.num_polysemous = 12;
  c.world.sentence_length = 8;
  c.codec.embed_dim = 20;
  c.codec.feature_dim = 16;
  c.codec.hidden_dim = 48;
  c.seed = 1101;
  return c;
}

/// Byte size of one pretrained general codec under `c` (the unit the
/// edge caches are sized in). The system derives its world from Rng(seed)
/// the same way, so the vocabularies match.
std::size_t general_bytes(const core::SystemConfig& c) {
  Rng world_rng(c.seed);
  const text::World world = text::World::generate(c.world, world_rng);
  semantic::CodecConfig cc = c.codec;
  cc.surface_vocab = world.surface_count();
  cc.meaning_vocab = world.meaning_count();
  cc.sentence_length = c.world.sentence_length;
  Rng init(1);
  return semantic::SemanticCodec(cc, init).byte_size();
}

}  // namespace

std::optional<WorkloadSpec> make_spec(const std::string& name) {
  WorkloadSpec w;
  w.name = name;
  w.config = standard_config();
  core::SystemConfig& c = w.config;
  if (name == "serve_plain") {
    // The per-message data-plane floor: no fine-tune, no selection, no
    // cache pressure; Hamming(7,4) + QPSK over AWGN at 10 dB.
    c.num_threads = 0;
    c.oracle_selection = true;
    c.buffer_trigger = std::size_t{1} << 30;  // above any run length
    w.users = 32;
    w.pairs_per_wave = 16;
    w.msgs_per_pair = 8;
    w.warmup_waves = 20;
    w.waves_per_second = 200.0;
    w.accuracy_floor = 0.95;
  } else if (name == "personalize") {
    // User-specific models: idiolect senders fine-tune every 24 messages
    // (6 epochs) and ship compressed decoder deltas across the backbone.
    c.num_threads = 3;
    c.oracle_selection = true;
    c.buffer_trigger = 24;
    c.buffer_capacity = 48;
    c.finetune_epochs = 6;
    // 16 idiolects draw ~14 slang words each from the world's pool.
    c.world.slang_pool_size = 512;
    w.users = 32;
    w.idiolects = true;
    w.pairs_per_wave = 16;
    w.msgs_per_pair = 8;
    w.warmup_waves = 8;  // fills every sender's 48-sample ring
    w.stagger_warmup = true;
    w.waves_per_second = 5.5;
    w.accuracy_floor = 0.90;
  } else if (name == "city_burst") {
    // City scale: 20 000 users over 2 shards, Zipf(1.0) activity, trained
    // context selector, 3-of-4 general cache, soft Viterbi over bursts.
    c.num_threads = 1;
    c.oracle_selection = false;
    c.selector = "context";
    c.channel.code = "conv_k3_r12";
    c.channel.medium = "gilbert_elliott";
    c.channel.soft_decision = true;
    // Only the Zipf head's busiest (user, domain) buffers reach the
    // trigger, and then train one batched epoch: updates stay rare. At
    // 185 waves/s the top user sends ~4200 messages per domain in 15 s and
    // the next one ~2100, so a 15 s run fires about 4 updates.
    c.buffer_trigger = 3000;
    c.finetune_epochs = 1;
    c.finetune_batch_size = 16;
    w.shards = 2;
    w.users = 20000;
    const std::size_t general = general_bytes(c);
    c.cache_capacity_bytes = 3 * general + general / 2;
    w.pairs_per_wave = 16;
    w.msgs_per_pair = 4;
    w.warmup_waves = 60;
    w.waves_per_second = 185.0;
    w.accuracy_floor = 0.95;
  } else {
    return std::nullopt;
  }
  c.devices_per_edge = w.users / 2;  // users alternate between the 2 edges
  return w;
}

Deployment::Deployment(const WorkloadSpec& spec, std::uint64_t seed)
    : spec_(spec), traffic_(Rng(seed).fork(0x7EAF1C)) {
  if (spec_.shards > 0) {
    sharded_ = core::ShardedEdgeServing::build(spec_.config, spec_.shards);
    dispatcher_ = std::make_unique<core::ParallelDispatcher>(*sharded_);
  } else {
    system_ = core::SemanticEdgeSystem::build(spec_.config);
    dispatcher_ = std::make_unique<core::ParallelDispatcher>(*system_);
  }
  text::IdiolectConfig idiolect;
  for (std::size_t i = 0; i < spec_.users; ++i) {
    const bool sender = spec_.shards > 0 || i < spec_.pairs_per_wave;
    // Senders s<i> sit on edge i % 2; receiver r<j> on the opposite edge of
    // the senders it is paired with. City users alternate edges.
    const std::size_t edge = spec_.shards > 0 || sender ? i % 2 : 1 - i % 2;
    const text::IdiolectConfig* cfg =
        spec_.idiolects && sender ? &idiolect : nullptr;
    if (sharded_) {
      sharded_->register_user(user_name(i), edge, cfg);
    } else {
      system_->register_user(user_name(i), edge, cfg);
    }
  }
  if (spec_.shards > 0) zipf_.emplace(spec_.users, 1.0);
}

std::string Deployment::user_name(std::size_t i) const {
  if (spec_.shards > 0) return "u" + std::to_string(i);
  return i < spec_.pairs_per_wave
             ? "s" + std::to_string(i)
             : "r" + std::to_string(i - spec_.pairs_per_wave);
}

Wave Deployment::next_wave(bool stagger) {
  const std::size_t w = wave_++;
  const std::size_t domains = spec_.config.world.num_domains;
  Wave wave(spec_.pairs_per_wave);
  if (zipf_) {
    for (std::size_t p = 0; p < wave.size(); ++p) {
      const std::size_t si = zipf_->sample(traffic_);
      std::size_t ri = zipf_->sample(traffic_);
      if (ri == si) ri = (ri + 1) % spec_.users;
      PairInput& pair = wave[p];
      pair.sender = user_name(si);
      pair.receiver = user_name(ri);
      core::SemanticEdgeSystem& owner = system_for(pair.sender);
      for (std::size_t i = 0; i < spec_.msgs_per_pair; ++i) {
        pair.messages.push_back(
            owner.world().sample_sentence((w + p + i) % domains, traffic_));
      }
    }
    return wave;
  }
  core::SemanticEdgeSystem& sys = *system_;
  const std::size_t half = spec_.pairs_per_wave / 2;
  for (std::size_t p = 0; p < wave.size(); ++p) {
    PairInput& pair = wave[p];
    pair.sender = user_name(p);
    // Receiver r<j> with j % 2 == p % 2 sits on the other edge.
    const auto j = static_cast<std::size_t>(
        2 * traffic_.uniform_int(0, static_cast<std::int64_t>(half) - 1) +
        static_cast<std::int64_t>(p % 2));
    pair.receiver = user_name(spec_.pairs_per_wave + j);
    const text::Idiolect* idiolect = sys.user(pair.sender).idiolect.get();
    const std::size_t count = spec_.msgs_per_pair * (stagger ? 1 + p % 3 : 1);
    for (std::size_t i = 0; i < count; ++i) {
      // Idiolect senders speak in a home domain; plain senders roam.
      const std::size_t domain =
          idiolect != nullptr
              ? p % domains
              : static_cast<std::size_t>(traffic_.uniform_int(
                    0, static_cast<std::int64_t>(domains) - 1));
      text::Sentence s = sys.world().sample_sentence(domain, traffic_);
      if (idiolect != nullptr) idiolect->apply(s);
      pair.messages.push_back(std::move(s));
    }
  }
  return wave;
}

void Deployment::drain() {
  if (system_) system_->simulator().run();
}

std::vector<core::SemanticEdgeSystem*> Deployment::systems() {
  if (system_) return {system_.get()};
  std::vector<core::SemanticEdgeSystem*> out;
  for (std::size_t s = 0; s < sharded_->num_shards(); ++s) {
    out.push_back(&sharded_->shard(s));
  }
  return out;
}

core::SemanticEdgeSystem& Deployment::system_for(const std::string& sender) {
  return system_ ? *system_ : sharded_->owning_shard(sender);
}

core::SystemStats Deployment::stats() const {
  return system_ ? system_->stats() : sharded_->stats();
}

core::MemoryFootprint Deployment::memory_footprint() const {
  return system_ ? system_->memory_footprint() : sharded_->memory_footprint();
}

std::size_t Deployment::pool_workers() {
  common::ThreadPool* pool = front().thread_pool();
  return pool == nullptr ? 0 : pool->worker_count();
}

}  // namespace perfbench
