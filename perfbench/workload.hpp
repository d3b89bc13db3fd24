// The benchmark's three serving workloads and the deployment each one runs.
//
// A workload fixes a system configuration (threads, shards, channel,
// selector, cache, fine-tune policy) and a traffic shape. Its traffic is
// generated here from the run's seed, outside any timed section, and
// handed to the public serving API as ready-made pair batches; the
// program under test never sees the seed.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/dispatcher.hpp"
#include "core/sharded.hpp"
#include "core/system.hpp"
#include "text/zipf.hpp"

namespace perfbench {

using namespace semcache;

/// One user pair's messages in a wave.
struct PairInput {
  std::string sender;
  std::string receiver;
  std::vector<text::Sentence> messages;
};
using Wave = std::vector<PairInput>;

struct WorkloadSpec {
  std::string name;
  core::SystemConfig config;
  /// 0 = one SemanticEdgeSystem; K >= 1 = a ShardedEdgeServing of K shards.
  std::size_t shards = 0;
  std::size_t users = 32;  ///< registered users (the directory size)
  bool idiolects = false;  ///< senders carry a private way of speaking
  /// The first warm-up wave gives sender i an extra (i % 3) message runs,
  /// so the senders' fine-tune triggers fall on different timed waves.
  bool stagger_warmup = false;
  std::size_t pairs_per_wave = 16;
  std::size_t msgs_per_pair = 8;
  std::size_t warmup_waves = 0;
  /// Timed waves per requested second: a run serves a fixed number of
  /// waves, round(seconds * waves_per_second), so two runs with the same
  /// seed do the same work (about `seconds` long on a 4-core x86 box).
  double waves_per_second = 1.0;
  std::size_t min_waves = 12;  ///< keeps 10 waves beyond the tail
  /// Output gate: mean token accuracy over the timed waves must exceed it.
  double accuracy_floor = 0.0;
};

/// The named workload ("serve_plain", "personalize", "city_burst"), or
/// nullopt for an unknown name.
std::optional<WorkloadSpec> make_spec(const std::string& name);

/// A built, registered deployment plus its seeded traffic generator.
class Deployment {
 public:
  /// Builds the system(s) (pretraining included) and registers the users.
  Deployment(const WorkloadSpec& spec, std::uint64_t seed);
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  /// The next wave of the seeded traffic stream; `stagger` as in
  /// WorkloadSpec::stagger_warmup.
  Wave next_wave(bool stagger = false);

  core::ParallelDispatcher& dispatcher() { return *dispatcher_; }
  bool sharded() const { return sharded_ != nullptr; }
  /// Runs the single system's delivery chains; a sharded flush has already
  /// drained every shard.
  void drain();

  /// Every system of the deployment (one, or one per shard).
  std::vector<core::SemanticEdgeSystem*> systems();
  /// The system that owns `sender`'s serving state.
  core::SemanticEdgeSystem& system_for(const std::string& sender);
  /// Any system; all share config, world and pretrained generals.
  core::SemanticEdgeSystem& front() { return *systems().front(); }
  core::SystemStats stats() const;
  core::MemoryFootprint memory_footprint() const;
  std::size_t pool_workers();

  const WorkloadSpec& spec() const { return spec_; }

 private:
  std::string user_name(std::size_t i) const;

  WorkloadSpec spec_;
  std::unique_ptr<core::SemanticEdgeSystem> system_;
  std::unique_ptr<core::ShardedEdgeServing> sharded_;
  std::unique_ptr<core::ParallelDispatcher> dispatcher_;
  Rng traffic_;
  std::optional<text::ZipfSampler> zipf_;
  std::size_t wave_ = 0;
};

}  // namespace perfbench
