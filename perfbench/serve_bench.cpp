// serve_bench — the repository benchmark: closed-loop serving workloads
// driven through core::ParallelDispatcher, with an output gate.
//
//   serve_bench --workload <serve_plain|personalize|city_burst>
//               --seed <n> --seconds <s> --trace <0|1>
//               [--trace-out <file.json>] [--threads <n>]
//
// One caller runs a closed loop: a wave of pair batches is enqueued,
// flushed and drained, and only then is the next wave generated and sent.
// A run serves round(seconds * waves_per_second) timed waves, so the same
// seed always does the same work. With --trace 0 the last stdout line is a
// JSON object with the end-to-end metrics; with --trace 1 each wave is
// replayed layer by layer after it is served (see replay.hpp) and the JSON
// carries the per-layer metrics instead; --trace-out writes the spans as
// Chrome trace-event JSON. --threads overrides the workload's pinned
// worker count (the determinism test uses it).
//
// Exit codes: 0 = outputs correct; 1 = the output gate failed (the JSON
// still prints, with "correct": false); 2 = bad arguments; 3 = an
// environment override contradicts the workload's pinned knobs.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "channel/pipeline.hpp"
#include "common/cpu.hpp"
#include "replay.hpp"
#include "semantic/fixture_cache.hpp"
#include "trace.hpp"
#include "workload.hpp"

using namespace perfbench;

namespace {

using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
  std::optional<std::size_t> threads;
};

bool parse_size(const std::string& s, std::uint64_t& out) {
  if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  out = std::strtoull(s.c_str(), nullptr, 10);
  return true;
}

std::optional<Options> parse(int argc, char** argv) {
  Options o;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    std::uint64_t n = 0;
    if (key == "--workload") {
      o.workload = val;
    } else if (key == "--seed" && parse_size(val, n)) {
      o.seed = n;
      have_seed = true;
    } else if (key == "--seconds") {
      char* end = nullptr;
      o.seconds = std::strtod(val.c_str(), &end);
      if (end == val.c_str() || *end != '\0' || !(o.seconds > 0.0)) {
        return std::nullopt;
      }
      have_seconds = true;
    } else if (key == "--trace" && (val == "0" || val == "1")) {
      o.trace = val == "1";
      have_trace = true;
    } else if (key == "--trace-out") {
      o.trace_out = val;
    } else if (key == "--threads" && parse_size(val, n)) {
      o.threads = static_cast<std::size_t>(n);
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 != 1 || o.workload.empty() || !have_seed || !have_seconds ||
      !have_trace) {
    return std::nullopt;
  }
  return o;
}

/// A message naming the first environment override that contradicts the
/// workload's pinned thread count, shard count or decision mode.
std::optional<std::string> env_contradiction(const WorkloadSpec& spec) {
  const auto check = [](const char* name, std::size_t pinned)
      -> std::optional<std::string> {
    const char* raw = std::getenv(name);
    if (raw == nullptr || *raw == '\0') return std::nullopt;
    std::uint64_t value = 0;
    if (parse_size(raw, value) && value == pinned) return std::nullopt;
    return std::string(name) + "=" + raw + " contradicts the pinned value " +
           std::to_string(pinned);
  };
  if (auto why = check("SEMCACHE_THREADS", spec.config.num_threads)) return why;
  if (auto why = check("SEMCACHE_SHARDS", std::max<std::size_t>(1, spec.shards))) {
    return why;
  }
  const bool soft = spec.config.channel.soft_decision;
  if (semcache::channel::resolve_soft_decision(soft) != soft) {
    return std::string("SEMCACHE_SOFT=") + std::getenv("SEMCACHE_SOFT") +
           " contradicts the pinned soft_decision=" + (soft ? "1" : "0");
  }
  return std::nullopt;
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::max<std::size_t>(rank, 1) - 1];
}

/// Cache counters summed over every edge of every system.
semcache::cache::CacheStats cache_totals(Deployment& dep) {
  semcache::cache::CacheStats t;
  for (core::SemanticEdgeSystem* sys : dep.systems()) {
    for (std::size_t e = 0; e < sys->config().num_edges; ++e) {
      const auto& s = sys->edge_state(e).general_cache().stats();
      t.hits += s.hits;
      t.misses += s.misses;
      t.evictions += s.evictions;
    }
  }
  return t;
}

std::size_t events_processed(Deployment& dep) {
  std::size_t n = 0;
  for (core::SemanticEdgeSystem* sys : dep.systems()) {
    n += sys->simulator().processed();
  }
  return n;
}

/// Bytes on the wire as SystemStats books them.
double stats_wire_bytes(const core::SystemStats& s) {
  return static_cast<double>(s.feature_bytes + s.sync_bytes + s.resync_bytes +
                             s.sync_ack_bytes + s.output_return_bytes);
}

/// What the completions of the timed waves add up to.
struct Totals {
  std::size_t attempted = 0;
  std::size_t completed = 0;
  std::size_t degraded = 0;
  std::size_t selection_ok = 0;
  std::size_t on_air = 0;  ///< messages that crossed the backbone
  std::uint64_t airtime_bits = 0;
  double accuracy_sum = 0.0;
  std::vector<double> latency_ms;
  std::vector<double> wave_ms;
  std::vector<double> flush_ms;
  double drain_s = 0.0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double flush_cpu_s = 0.0;
};

class Runner {
 public:
  Runner(const Options& opt, WorkloadSpec spec) : opt_(opt), spec_(std::move(spec)) {}

  int run();

 private:
  /// Enqueues, flushes and drains one wave; books into `t` when non-null
  /// (timed waves), and then replays it when tracing.
  void serve(Wave wave, Totals* t, std::uint64_t wave_id);
  /// Books a wave's updates, in the order they ran, into versions_ and
  /// shipped_.
  void book_updates(const Wave& wave, const std::vector<UpdateEvent>& updates);
  void check_replicas();
  void fail(const std::string& why) { failures_.push_back(why); }

  const Options& opt_;
  WorkloadSpec spec_;
  std::unique_ptr<Deployment> dep_;
  Tracer tracer_;
  std::unique_ptr<Replayer> replayer_;
  std::size_t attempted_all_ = 0;  ///< warm-up + timed, the kept set-up
  /// Updates seen per fine-tuned (sender, domain): the sender's version.
  std::map<std::pair<std::string, std::size_t>, std::uint64_t> versions_;
  /// (sender, domain, receiver edge) -> the version last shipped there.
  std::map<std::tuple<std::string, std::size_t, std::size_t>, std::uint64_t>
      shipped_;
  std::vector<std::string> failures_;
  std::size_t replicas_checked_ = 0;
  std::size_t replicas_behind_ = 0;
};

void Runner::serve(Wave wave, Totals* t, std::uint64_t wave_id) {
  std::size_t attempted = 0;
  for (const PairInput& p : wave) attempted += p.messages.size();
  // The dispatcher merges repeated (sender, receiver) enqueues into one
  // batch, and a completion's pair index counts distinct pairs in
  // first-enqueue order; first[k] is the wave position of distinct pair k.
  std::vector<std::size_t> first;
  std::set<std::pair<std::string, std::string>> seen;
  for (std::size_t p = 0; p < wave.size(); ++p) {
    if (seen.insert({wave[p].sender, wave[p].receiver}).second) first.push_back(p);
  }
  std::size_t completed = 0;
  std::vector<UpdateEvent> updates;
  const auto on_done = [&](std::size_t pair, std::size_t index,
                           core::TransmitReport r) {
    ++completed;
    if (r.triggered_update) {
      updates.push_back({first[pair], index, r.domain_selected});
    }
    if (t == nullptr) return;
    t->degraded += r.degraded ? 1 : 0;
    t->selection_ok += r.selection_correct ? 1 : 0;
    t->accuracy_sum += r.token_accuracy;
    t->latency_ms.push_back(1e3 * r.latency_s);
    if (r.airtime_bits > 0) {
      ++t->on_air;
      t->airtime_bits += r.airtime_bits;
    }
  };

  // Tracing keeps the wave for the replay; the copy is made before timing.
  const Wave kept = replayer_ != nullptr && t != nullptr ? wave : Wave{};
  const bool traced = replayer_ != nullptr && t != nullptr;
  std::uint64_t root = 0, span = 0;
  if (traced) root = tracer_.open("wave", 0, wave_id);

  core::ParallelDispatcher& dispatcher = dep_->dispatcher();
  const double cpu0 = cpu_seconds();
  const auto t0 = Clock::now();
  if (traced) span = tracer_.open("core.flush", root, wave_id);
  for (PairInput& p : wave) {
    dispatcher.enqueue(p.sender, p.receiver, std::move(p.messages));
  }
  dispatcher.flush(on_done);
  if (traced) tracer_.close(span);
  const auto t1 = Clock::now();
  const double cpu1 = cpu_seconds();
  if (traced) span = tracer_.open("edge.drain", root, wave_id);
  dep_->drain();
  if (traced) tracer_.close(span);
  const auto t2 = Clock::now();
  const double cpu2 = cpu_seconds();

  attempted_all_ += attempted;
  // Completions arrive in delivery order; updates ran in pair order and,
  // within a pair, in message order.
  std::sort(updates.begin(), updates.end(),
            [](const UpdateEvent& a, const UpdateEvent& b) {
              return std::tie(a.pair, a.index) < std::tie(b.pair, b.index);
            });
  book_updates(wave, updates);
  if (completed != attempted) {
    fail("wave " + std::to_string(wave_id) + ": " + std::to_string(completed) +
         " of " + std::to_string(attempted) + " messages completed");
  }
  if (t == nullptr) return;
  t->attempted += attempted;
  t->completed += completed;
  t->flush_ms.push_back(1e3 * seconds_between(t0, t1));
  t->wave_ms.push_back(1e3 * seconds_between(t0, t2));
  t->drain_s += seconds_between(t1, t2);
  t->wall_s += seconds_between(t0, t2);
  t->cpu_s += cpu2 - cpu0;
  t->flush_cpu_s += cpu1 - cpu0;
  if (traced) {
    replayer_->replay(kept, wave_id, root, updates);
    tracer_.close(root);
  }
}

void Runner::book_updates(const Wave& wave,
                          const std::vector<UpdateEvent>& updates) {
  for (const UpdateEvent& u : updates) {
    const PairInput& p = wave[u.pair];
    const std::uint64_t version = ++versions_[{p.sender, u.domain}];
    // A cross-edge update ships its delta (or, after a gap, a full resync)
    // to the receiver's edge only; an intra-edge one ships nowhere.
    core::SemanticEdgeSystem& sys = dep_->system_for(p.sender);
    const std::size_t re = sys.user(p.receiver).edge_index;
    if (re != sys.user(p.sender).edge_index) {
      shipped_[{p.sender, u.domain, re}] = version;
    }
  }
}

void Runner::check_replicas() {
  // For every (sender, domain) that fine-tuned, the sender's version must
  // equal the updates the benchmark saw, and each replica on another edge
  // must hold exactly the version last shipped to that edge (none: the
  // general model, version 0). A replica at the sender's version must be
  // byte-identical to the sender's decoder copy. A replica may be behind
  // the sender only when every later update was an intra-edge one, which
  // ships nowhere (city_burst's Zipf pairs); it is counted, not compared.
  for (const auto& [key, version] : versions_) {
    const auto& [sender, domain] = key;
    const std::string what =
        "(" + sender + ", domain " + std::to_string(domain) + ")";
    core::SemanticEdgeSystem& sys = dep_->system_for(sender);
    const std::size_t se = sys.user(sender).edge_index;
    core::UserModelSlot* sslot = sys.edge_state(se).find_slot(sender, domain);
    if (sslot == nullptr) {
      fail("fine-tuned sender " + what + " has no slot");
      continue;
    }
    if (sslot->send_version != version) {
      fail("sender " + what + " is at version " +
           std::to_string(sslot->send_version) + ", " + std::to_string(version) +
           " updates completed");
      continue;
    }
    for (std::size_t e = 0; e < sys.config().num_edges; ++e) {
      if (e == se) continue;
      const auto it = shipped_.find({sender, domain, e});
      const std::uint64_t expected = it == shipped_.end() ? 0 : it->second;
      core::UserModelSlot* rslot = sys.edge_state(e).find_slot(sender, domain);
      if (rslot == nullptr) {
        if (expected != 0) fail("replica of " + what + " missing on edge " +
                                std::to_string(e));
        continue;
      }
      if (rslot->recv_version.current() != expected) {
        fail("replica of " + what + " on edge " + std::to_string(e) +
             " is at version " + std::to_string(rslot->recv_version.current()) +
             ", version " + std::to_string(expected) + " was shipped there");
      } else if (expected != version) {
        ++replicas_behind_;
      } else {
        ++replicas_checked_;
        if (!sys.replicas_in_sync(sender, domain, se, e)) {
          fail("replica of " + what + " on edge " + std::to_string(e) +
               " differs at version " + std::to_string(version));
        }
      }
    }
  }
}

/// wave_p50_ms and wave_tail_ms. The timed waves are cut into blocks of at
/// least kMinBlock consecutive waves (at most kBlocks; one block when the
/// run is shorter). Interference on a shared host slows whole stretches of
/// a run, by up to ~70% on the reference box, so a run's wave times mix a
/// fast and a slow mode in a share that changes from run to run. The
/// whole-run median jumps between the modes as that share crosses a half;
/// the mean of the block medians moves with the share instead. A block's
/// tail is its highest percentile of wave time with kTailBeyond waves
/// beyond it, and the run reports the median block tail: a burst of
/// interference can fill the top ten waves of one block, but not of most.
constexpr std::size_t kBlocks = 10;
constexpr std::size_t kMinBlock = 100;
constexpr std::size_t kTailBeyond = 10;

struct WaveSummary {
  double p50_ms = 0.0;
  double tail_ms = 0.0;
  double tail_percentile = 0.0;  ///< in the shortest block
  std::size_t blocks = 0;
  std::size_t block_waves = 0;  ///< waves in the shortest block
};

WaveSummary summarize_waves(const std::vector<double>& wave_ms) {
  const std::size_t n = wave_ms.size();
  WaveSummary out;
  out.blocks = std::max<std::size_t>(1, std::min(kBlocks, n / kMinBlock));
  out.block_waves = n / out.blocks;
  std::vector<double> tails;
  for (std::size_t b = 0; b < out.blocks; ++b) {
    std::vector<double> waves(
        wave_ms.begin() + static_cast<std::ptrdiff_t>(b * n / out.blocks),
        wave_ms.begin() + static_cast<std::ptrdiff_t>((b + 1) * n / out.blocks));
    out.p50_ms += median(waves) / static_cast<double>(out.blocks);
    std::sort(waves.begin(), waves.end());
    tails.push_back(waves[waves.size() - 1 - std::min(kTailBeyond, waves.size() - 1)]);
  }
  const auto m = static_cast<double>(out.block_waves);
  out.tail_percentile = 100.0 * std::max(0.0, m - static_cast<double>(kTailBeyond)) / m;
  out.tail_ms = median(tails);
  return out;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Cold set-ups timed per untraced run; setup_s is their median.
constexpr std::size_t kSetupReps = 3;

int Runner::run() {
  const std::size_t timed_waves = std::max<std::size_t>(
      spec_.min_waves,
      static_cast<std::size_t>(std::llround(opt_.seconds * spec_.waves_per_second)));

  // Set-up, cold, several times: build (pretraining), registration and
  // warm-up. Only the last deployment is kept and measured.
  std::vector<double> setup_s;
  const std::size_t reps = opt_.trace ? 1 : kSetupReps;
  for (std::size_t r = 0; r < reps; ++r) {
    dep_.reset();
    attempted_all_ = 0;
    versions_.clear();
    shipped_.clear();
    failures_.clear();
    const auto t0 = Clock::now();
    dep_ = std::make_unique<Deployment>(spec_, opt_.seed);
    for (std::size_t w = 0; w < spec_.warmup_waves; ++w) {
      serve(dep_->next_wave(spec_.stagger_warmup && w == 0), nullptr, w);
    }
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }

  // Pinned knobs must have resolved as configured.
  const core::SystemConfig& cfg = dep_->front().config();
  const std::size_t workers = dep_->pool_workers();
  const bool soft = semcache::channel::resolve_soft_decision(
      spec_.config.channel.soft_decision);
  if (cfg.num_threads != spec_.config.num_threads || workers != cfg.num_threads) {
    fail("thread count resolved to " + std::to_string(cfg.num_threads) + " (" +
         std::to_string(workers) + " pool workers), pinned " +
         std::to_string(spec_.config.num_threads));
  }
  const std::size_t shards = dep_->systems().size();
  std::cout << "# knobs: simd=" << common::simd_tier_name(common::active_simd_tier())
            << " soft_decision=" << soft << " num_threads=" << cfg.num_threads
            << " pool_workers=" << workers << " shards=" << shards
            << " fixture_cache=" << (semantic::FixtureCache::enabled() ? "on" : "off")
            << "\n";

  if (opt_.trace) {
    const std::size_t run_messages =
        attempted_all_ + timed_waves * spec_.pairs_per_wave * spec_.msgs_per_pair;
    replayer_ = std::make_unique<Replayer>(
        *dep_, tracer_, opt_.seed, spec_.config.buffer_trigger > run_messages);
  }

  // ---- Timed waves. ----
  const core::SystemStats s0 = dep_->stats();
  const semcache::cache::CacheStats c0 = cache_totals(*dep_);
  const std::size_t ev0 = events_processed(*dep_);
  Totals t;
  t.latency_ms.reserve(timed_waves * spec_.pairs_per_wave * spec_.msgs_per_pair);
  for (std::size_t w = 0; w < timed_waves; ++w) {
    serve(dep_->next_wave(), &t, spec_.warmup_waves + w);
  }
  const core::SystemStats s1 = dep_->stats();
  const semcache::cache::CacheStats c1 = cache_totals(*dep_);
  const std::size_t events = events_processed(*dep_) - ev0;

  // ---- Output gate. ----
  if (s1.messages != attempted_all_) {
    fail("stats().messages = " + std::to_string(s1.messages) + ", attempted " +
         std::to_string(attempted_all_));
  }
  if (s1.degraded_serves != 0) {
    fail(std::to_string(s1.degraded_serves) + " degraded serves");
  }
  check_replicas();
  const double delivered = static_cast<double>(t.completed);
  const double accuracy = t.accuracy_sum / std::max(1.0, delivered);
  if (!(accuracy > spec_.accuracy_floor)) {
    fail("token_accuracy " + json_number(accuracy) + " not above the floor " +
         json_number(spec_.accuracy_floor));
  }
  const std::size_t failed = t.attempted - t.completed + t.degraded;

  // ---- Metrics. ----
  const std::size_t n_waves = t.wave_ms.size();
  const double misses = static_cast<double>(c1.misses - c0.misses);
  const double hits = static_cast<double>(c1.hits - c0.hits);
  const double general_bytes =
      static_cast<double>(dep_->front().general_model(0).byte_size());
  const double wire = stats_wire_bytes(s1) - stats_wire_bytes(s0) +
                      misses * general_bytes;
  const double updates = static_cast<double>(s1.updates - s0.updates);

  // Rates are over the whole timed run, so the rare heavy waves (a
  // fine-tune, a burst of cache refetches) count in full.
  const double msgs_per_s = delivered / t.wall_s;
  const WaveSummary waves = summarize_waves(t.wave_ms);

  std::vector<Metric> metrics;
  if (!opt_.trace) {
    metrics = {
        {"msgs_per_s", msgs_per_s, "1/s"},
        {"msgs_per_cpu_s", delivered / t.cpu_s, "1/s"},
        {"wave_p50_ms", waves.p50_ms, "ms"},
        {"wave_tail_ms", waves.tail_ms, "ms"},
        {"setup_s", median(setup_s), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
        {"token_accuracy", accuracy, "ratio"},
        {"wire_bytes_per_msg", wire / delivered, "B"},
        {"sim_latency_p50_ms", median(t.latency_ms), "ms"},
        {"sim_latency_p99_ms", percentile(t.latency_ms, 0.99), "ms"},
    };
  } else {
    const Replayer& r = *replayer_;
    const auto per = [](double num, double den) { return den > 0 ? num / den : 0.0; };
    const double air = static_cast<double>(r.channel_messages());
    const double replayed = static_cast<double>(r.messages());
    const double channel_us =
        tracer_.total_us(span::kChannelCode) + tracer_.total_us(span::kChannelModulate) +
        tracer_.total_us(span::kChannelNoise) + tracer_.total_us(span::kChannelDemap) +
        tracer_.total_us(span::kChannelDecode);
    const double quantize_us =
        tracer_.total_us(span::kQuantize) + tracer_.total_us(span::kDequantize);
    const double ft_ms = per(tracer_.total_us(span::kFinetune) / 1e3,
                             static_cast<double>(tracer_.count(span::kFinetune)));
    const double sync_ms = per(tracer_.total_us(span::kSyncMake) / 1e3,
                               static_cast<double>(tracer_.count(span::kSyncMake)));
    // Replayed spans on the served path, against the flush's CPU time.
    double covered_us = tracer_.total_us(span::kEncode) + quantize_us + channel_us +
                        tracer_.total_us(span::kDecode) +
                        tracer_.total_us(span::kMismatch) +
                        1e3 * (ft_ms + sync_ms) * updates;
    if (!cfg.oracle_selection) covered_us += tracer_.total_us(span::kSelect);
    if (dep_->sharded()) covered_us += tracer_.total_us(span::kEdgeReplay);
    const core::MemoryFootprint fp = dep_->memory_footprint();
    const double per_user_bytes =
        static_cast<double>(fp.profile_bytes + fp.slot_bytes + fp.buffer_bytes +
                            fp.user_model_bytes) /
        static_cast<double>(std::max<std::size_t>(1, fp.users));
    const double sync_bytes =
        updates > 0 ? static_cast<double>(s1.sync_bytes - s0.sync_bytes) / updates
                    : static_cast<double>(r.sync_bytes()) /
                          std::max(1.0, static_cast<double>(r.finetunes()));
    const double drain_ms = dep_->sharded() ? tracer_.total_us(span::kEdgeReplay) / 1e3
                                            : 1e3 * t.drain_s;
    metrics = {
        {"channel.us_per_msg", per(channel_us, air), "us"},
        {"channel.noise_us_per_msg", per(tracer_.total_us(span::kChannelNoise), air), "us"},
        {"channel.decode_us_per_msg", per(tracer_.total_us(span::kChannelDecode), air), "us"},
        {"channel.airtime_bits_per_msg",
         per(static_cast<double>(t.airtime_bits), static_cast<double>(t.on_air)), "bit"},
        {"channel.residual_ber",
         per(static_cast<double>(r.bit_errors()), static_cast<double>(r.payload_bits())),
         "ratio"},
        {"semantic.encode_us_per_msg", per(tracer_.total_us(span::kEncode), replayed), "us"},
        {"semantic.quantize_us_per_msg", per(quantize_us, replayed), "us"},
        {"semantic.decode_us_per_msg", per(tracer_.total_us(span::kDecode), replayed), "us"},
        {"semantic.finetune_ms_per_update", ft_ms, "ms"},
        {"semantic.updates_per_kmsg", 1e3 * updates / delivered, "count"},
        {"nn.mismatch_us_per_msg", per(tracer_.total_us(span::kMismatch), replayed), "us"},
        {"fl.sync_make_ms_per_update", sync_ms, "ms"},
        {"fl.sync_bytes_per_update", sync_bytes, "B"},
        {"select.us_per_msg", per(tracer_.total_us(span::kSelect), replayed), "us"},
        {"select.accuracy", static_cast<double>(t.selection_ok) / delivered, "ratio"},
        {"cache.hit_rate", per(hits, hits + misses), "ratio"},
        {"cache.evictions_per_kmsg",
         1e3 * static_cast<double>(c1.evictions - c0.evictions) / delivered, "count"},
        {"core.flush_ms_per_wave", median(t.flush_ms), "ms"},
        {"core.unattributed_share",
         std::max(0.0, 1.0 - covered_us / (1e6 * t.flush_cpu_s)), "ratio"},
        {"core.bytes_per_user", per_user_bytes, "B"},
        {"core.materialized_models", static_cast<double>(fp.materialized_models), "count"},
        {"edge.drain_ms_per_wave", drain_ms / static_cast<double>(n_waves), "ms"},
        {"edge.events_per_msg",
         static_cast<double>(dep_->sharded() ? r.edge_events() : events) / delivered,
         "count"},
        {"common.cpu_per_wall", t.cpu_s / t.wall_s, "ratio"},
        {"trace.msgs_per_s", msgs_per_s, "1/s"},
    };
    if (!opt_.trace_out.empty() && !tracer_.write_chrome_json(opt_.trace_out)) {
      fail("cannot write trace file " + opt_.trace_out);
    }
  }

  std::cout << "# workload=" << spec_.name << " seed=" << opt_.seed
            << " timed_waves=" << n_waves << " warmup_waves=" << spec_.warmup_waves
            << " setup_reps=" << setup_s.size() << " trace=" << opt_.trace << "\n";
  std::cout << "# wave_tail_ms is the p" << json_number(waves.tail_percentile)
            << " wave (" << kTailBeyond << " waves beyond it) of blocks of "
            << waves.block_waves << " waves; median of " << waves.blocks
            << " block(s) over " << n_waves << " timed waves\n";
  std::cout << "# msgs_failed_ratio=" << json_number(static_cast<double>(failed) /
                                                       static_cast<double>(t.attempted))
            << " updates=" << s1.updates - s0.updates
            << " replicas_checked=" << replicas_checked_
            << " replicas_behind=" << replicas_behind_ << "\n";
  for (const Metric& m : metrics) {
    std::cout << "# " << m.name << " = " << json_number(m.value) << " " << m.unit << "\n";
  }
  for (const std::string& f : failures_) std::cout << "# GATE FAILED: " << f << "\n";

  std::ostringstream json;
  json << "{\"correct\": " << (failures_.empty() ? "true" : "false")
       << ", \"attempted\": " << t.attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
         << json_number(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit
         << "\"}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return failures_.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Options> opt = parse(argc, argv);
  if (!opt) {
    std::cerr << "usage: serve_bench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--trace-out <file>] [--threads <n>]\n";
    return 2;
  }
  std::optional<WorkloadSpec> spec = make_spec(opt->workload);
  if (!spec) {
    std::cerr << "serve_bench: unknown workload '" << opt->workload << "'\n";
    return 2;
  }
  if (opt->threads) spec->config.num_threads = *opt->threads;
  // setup_s is measured cold: a fixture cache would turn pretraining into
  // a file read.
  unsetenv("SEMCACHE_FIXTURE_DIR");
  if (const auto why = env_contradiction(*spec)) {
    std::cerr << "serve_bench: " << *why << "\n";
    return 3;
  }
  try {
    return Runner(*opt, std::move(*spec)).run();
  } catch (const std::exception& e) {
    std::cerr << "serve_bench: " << e.what() << "\n";
    return 1;
  }
}
