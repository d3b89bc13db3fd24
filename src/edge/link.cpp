#include "edge/link.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace semcache::edge {

Link::Link(LinkId id, NodeId from, NodeId to, double bandwidth_bps,
           double propagation_s)
    : id_(id),
      from_(from),
      to_(to),
      bandwidth_(bandwidth_bps),
      propagation_(propagation_s) {
  SEMCACHE_CHECK(bandwidth_bps > 0.0, "Link: bandwidth must be positive");
  SEMCACHE_CHECK(propagation_s >= 0.0, "Link: negative propagation delay");
  std::uint64_t seed = static_cast<std::uint64_t>(id_);
  lane_key_ = semcache::splitmix64(seed);
}

double Link::transfer_time(std::size_t bytes) const {
  return static_cast<double>(bytes) * 8.0 / bandwidth_ + propagation_;
}

void Link::set_flap_schedule(double period_s, double down_s, double phase_s) {
  if (period_s <= 0.0 || down_s <= 0.0) {
    flap_period_ = flap_down_ = flap_phase_ = 0.0;
    return;
  }
  SEMCACHE_CHECK(down_s <= period_s,
                 "Link: flap down time must not exceed the period");
  flap_period_ = period_s;
  flap_down_ = down_s;
  flap_phase_ = phase_s;
}

void Link::add_outage(SimTime start, SimTime end) {
  SEMCACHE_CHECK(start >= 0.0 && end > start,
                 "Link: outage window must satisfy 0 <= start < end");
  // Merge into the sorted, disjoint list. Every window whose end reaches
  // the new start and whose start doesn't pass the new end overlaps or
  // abuts [start, end) — absorb the whole contiguous run into one window
  // (adjacent windows coalesce too: the union is the same set of
  // instants, and one window per run is what keeps queries logarithmic).
  const auto lo = std::lower_bound(
      outages_.begin(), outages_.end(), start,
      [](const std::pair<SimTime, SimTime>& w, SimTime s) {
        return w.second < s;
      });
  auto hi = lo;
  while (hi != outages_.end() && hi->first <= end) {
    start = std::min(start, hi->first);
    end = std::max(end, hi->second);
    ++hi;
  }
  if (lo == hi) {
    outages_.insert(lo, {start, end});
  } else {
    lo->first = start;
    lo->second = end;
    outages_.erase(lo + 1, hi);
  }
}

std::vector<std::pair<SimTime, SimTime>>::const_iterator
Link::window_covering(SimTime t) const {
  auto it = std::upper_bound(
      outages_.begin(), outages_.end(), t,
      [](SimTime tt, const std::pair<SimTime, SimTime>& w) {
        return tt < w.first;
      });
  if (it == outages_.begin()) return outages_.end();
  --it;
  return t < it->second ? it : outages_.end();
}

bool Link::is_down(SimTime t) const {
  if (window_covering(t) != outages_.end()) return true;
  if (flap_period_ > 0.0) {
    double pos = std::fmod(t - flap_phase_, flap_period_);
    if (pos < 0.0) pos += flap_period_;
    if (pos < flap_down_) return true;
  }
  return false;
}

SimTime Link::next_up(SimTime t) const {
  // A flap that never comes up (down == period) has no next-up time; the
  // explicit windows can't be unbounded — they're finitely many, sorted
  // and disjoint, so each window is jumped at most once and a flap
  // down-phase can't cover the instant it just jumped past, which bounds
  // the walk without an iteration cap.
  SEMCACHE_CHECK(flap_period_ <= 0.0 || flap_down_ < flap_period_,
                 "Link::next_up: flap schedule is never up");
  for (;;) {
    SimTime up = t;
    const auto w = window_covering(t);
    if (w != outages_.end()) {
      up = w->second;
    } else if (flap_period_ > 0.0) {
      double pos = std::fmod(t - flap_phase_, flap_period_);
      if (pos < 0.0) pos += flap_period_;
      if (pos < flap_down_) up = t + (flap_down_ - pos);
    }
    // When t sits within one ulp of a window's end, the remaining down
    // time underflows and up rounds back onto t. The link is up for any
    // practical purpose — returning t keeps the walk terminating and the
    // result a pure function of t.
    if (up <= t) return t;
    t = up;
  }
}

Link::Admission Link::admit(SimTime at, std::size_t bytes,
                            OutagePolicy policy) {
  const double serialization = static_cast<double>(bytes) * 8.0 / bandwidth_;
  SimTime start = std::max(at, busy_until_);
  Admission admission;
  if (is_down(start)) {
    if (policy == OutagePolicy::kDrop) {
      ++outage_drops_;
      admission.dropped = true;
      return admission;
    }
    start = next_up(start);
    ++outage_queued_;
    admission.queued = true;
  }
  busy_until_ = start + serialization;
  admission.delivered = start + serialization + propagation_;
  bytes_carried_ += bytes;
  ++transfers_;
  return admission;
}

SimTime Link::send(Simulator& sim, std::size_t bytes,
                   Simulator::Handler on_delivered) {
  const Admission admission = admit(sim.now(), bytes, outage_policy_);
  if (admission.dropped) {
    if (drop_sink_ != nullptr) ++*drop_sink_;
    return kDropped;
  }
  if (admission.queued && queue_sink_ != nullptr) ++*queue_sink_;
  sim.schedule_at(admission.delivered, std::move(on_delivered));
  return admission.delivered;
}

void Link::send_concurrent(Simulator& sim, std::size_t bytes,
                           Simulator::Handler on_delivered) {
  // `at` and the outage policy are captured at the schedule site, where
  // send() would have read them: the compute phase must not touch the
  // Simulator, and a policy toggled between this call and the wave must
  // not retroactively change this send's fate. (now() at wave time
  // equals now() here anyway — the event runs at its own timestamp.)
  const SimTime at = sim.now();
  const OutagePolicy policy = outage_policy_;
  // The delivery event's insertion seq is reserved HERE, where send()
  // would have allocated it, and the commit schedules with it — so a
  // same-timestamp event the caller schedules between this call and the
  // wave breaks the tie exactly as under send(). A kDrop refusal simply
  // leaves the reservation unused (seq gaps are harmless).
  const std::uint64_t delivery_seq = sim.reserve_seq();
  auto admission = std::make_shared<Admission>();
  sim.schedule_concurrent_at(
      at, lane_key_, /*prepare=*/nullptr,
      // Compute: admission writes only this link's own state. Same-link
      // sends share the lane and therefore run in scheduling order — the
      // same FIFO send() enforces — while different links' computes fan
      // out in parallel.
      [this, at, bytes, policy, admission] {
        *admission = admit(at, bytes, policy);
      },
      // Commit: shared sinks and simulator scheduling, ordered.
      [this, &sim, admission, delivery_seq,
       fn = std::move(on_delivered)]() mutable {
        if (admission->dropped) {
          if (drop_sink_ != nullptr) ++*drop_sink_;
          return;
        }
        if (admission->queued && queue_sink_ != nullptr) ++*queue_sink_;
        sim.schedule_at_reserved(admission->delivered, delivery_seq,
                                 std::move(fn));
      });
}

}  // namespace semcache::edge
