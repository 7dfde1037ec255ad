#include "verify/shrink.hpp"

#include <algorithm>
#include <utility>

namespace mcm::verify {
namespace {

class Shrinker {
 public:
  Shrinker(Scenario best, std::string mismatch, const Oracle& oracle,
           std::uint64_t max_attempts)
      : best_(std::move(best)),
        mismatch_(std::move(mismatch)),
        oracle_(oracle),
        max_attempts_(max_attempts) {}

  ShrinkResult run() {
    bool progressed = true;
    while (progressed && attempts_ < max_attempts_) {
      progressed = false;
      progressed |= drop_frames();
      progressed |= drop_stages();
      progressed |= shrink_requests();
      progressed |= simplify_config();
    }
    return ShrinkResult{std::move(best_), std::move(mismatch_), attempts_};
  }

 private:
  /// Accept `candidate` when the oracle still rejects it.
  bool try_candidate(const Scenario& candidate) {
    if (candidate == best_) return false;
    if (attempts_ >= max_attempts_) return false;
    ++attempts_;
    const std::optional<std::string> m = oracle_(candidate);
    if (!m.has_value()) return false;
    best_ = candidate;
    mismatch_ = *m;
    return true;
  }

  bool drop_frames() {
    bool progressed = false;
    for (std::size_t f = best_.frames.size(); f-- > 0;) {
      if (best_.frames.size() == 1) break;  // scenarios need one frame
      Scenario c = best_;
      c.frames.erase(c.frames.begin() + static_cast<std::ptrdiff_t>(f));
      progressed |= try_candidate(c);
    }
    return progressed;
  }

  bool drop_stages() {
    bool progressed = false;
    for (std::size_t f = 0; f < best_.frames.size(); ++f) {
      for (std::size_t s = best_.frames[f].stages.size(); s-- > 0;) {
        if (best_.frames[f].stages.size() == 1) break;  // frames need one stage
        Scenario c = best_;
        c.frames[f].stages.erase(c.frames[f].stages.begin() +
                                 static_cast<std::ptrdiff_t>(s));
        progressed |= try_candidate(c);
      }
    }
    return progressed;
  }

  /// Classic delta debugging per stage: try removing chunks of size n/2,
  /// n/4, ... 1 until no single request can be removed.
  bool shrink_requests() {
    bool progressed = false;
    for (std::size_t f = 0; f < best_.frames.size(); ++f) {
      for (std::size_t s = 0; s < best_.frames[f].stages.size(); ++s) {
        progressed |= shrink_stage_requests(f, s);
      }
    }
    return progressed;
  }

  bool shrink_stage_requests(std::size_t f, std::size_t s) {
    bool progressed = false;
    std::size_t chunk = best_.frames[f].stages[s].reqs.size() / 2;
    chunk = std::max<std::size_t>(chunk, 1);
    while (attempts_ < max_attempts_) {
      const std::size_t n = best_.frames[f].stages[s].reqs.size();
      if (n == 0) break;
      bool removed_any = false;
      // Walk back-to-front so surviving indices stay valid after a removal.
      for (std::size_t pos = n; pos > 0;) {
        pos = pos > chunk ? pos - chunk : 0;
        if (pos >= best_.frames[f].stages[s].reqs.size()) continue;
        Scenario c = best_;
        auto& reqs = c.frames[f].stages[s].reqs;
        const std::size_t end = std::min(pos + chunk, reqs.size());
        reqs.erase(reqs.begin() + static_cast<std::ptrdiff_t>(pos),
                   reqs.begin() + static_cast<std::ptrdiff_t>(end));
        if (try_candidate(c)) {
          removed_any = true;
          progressed = true;
        }
      }
      if (!removed_any) {
        if (chunk == 1) break;
        chunk = std::max<std::size_t>(chunk / 2, 1);
      }
    }
    return progressed;
  }

  /// Push configuration knobs toward simpler values one at a time; each
  /// mutation is kept only when the mismatch survives it.
  bool simplify_config() {
    bool progressed = false;
    const auto mutate = [&](auto&& fn) {
      Scenario c = best_;
      fn(c);
      progressed |= try_candidate(c);
    };
    // The inert engine fields go to their defaults, so a repro carries no
    // noise.
    mutate([](Scenario& c) { c.sim_threads = 1; });
    mutate([](Scenario& c) { c.legacy_feed = false; });
    // Back to the homogeneous legacy system first: most mismatches are not
    // about device classes at all.
    mutate([](Scenario& c) {
      c.channel_classes.clear();
      c.vault_group = 0;
    });
    mutate([](Scenario& c) { c.vault_group = 0; });
    // channel_classes is per-channel, so any channel-count shrink must keep
    // it sized to match (the config rejects a length mismatch).
    mutate([](Scenario& c) {
      c.channels = 1;
      if (!c.channel_classes.empty()) c.channel_classes.resize(1);
    });
    mutate([](Scenario& c) {
      c.channels = std::max(c.channels / 2, 1u);
      if (!c.channel_classes.empty()) c.channel_classes.resize(c.channels);
    });
    mutate([](Scenario& c) { c.stream_row_hits = false; });
    mutate([](Scenario& c) { c.queue_depth = std::max(c.queue_depth / 2, 1u); });
    mutate([](Scenario& c) { c.scheduler = "FCFS"; });
    mutate([](Scenario& c) { c.page_policy = "open"; });
    mutate([](Scenario& c) { c.selfrefresh_idle_cycles = -1; });
    mutate([](Scenario& c) { c.powerdown_idle_cycles = -1; });
    mutate([](Scenario& c) { c.refresh_postpone_max = 0; });
    mutate([](Scenario& c) { c.request_interval_cycles = 0; });
    mutate([](Scenario& c) { c.interconnect_latency_ps = 0; });
    mutate([](Scenario& c) { c.max_skips = 128; });
    mutate([](Scenario& c) { c.period_ps = std::max<std::int64_t>(c.period_ps / 4, 1); });
    mutate([](Scenario& c) { c.frames.resize(1); });
    return progressed;
  }

  Scenario best_;
  std::string mismatch_;
  const Oracle& oracle_;
  std::uint64_t max_attempts_;
  std::uint64_t attempts_ = 0;
};

}  // namespace

ShrinkResult shrink_scenario(const Scenario& s, const std::string& mismatch,
                             const Oracle& oracle, std::uint64_t max_attempts) {
  return Shrinker(s, mismatch, oracle, max_attempts).run();
}

}  // namespace mcm::verify
