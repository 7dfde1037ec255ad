// Traffic sources: pull-style generators of burst-granular memory requests.
// The load model of paper Section III is a state machine over the Fig. 1
// processing chain; each state is one TrafficSource here, producing the
// stage's read/write volumes as interleaved sequential streams.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/units.hpp"
#include "controller/request.hpp"
#include "load/packed_runs.hpp"

namespace mcm::load {

class TrafficSource {
 public:
  virtual ~TrafficSource() = default;

  [[nodiscard]] virtual bool done() const = 0;
  /// Current head request. Precondition: !done().
  [[nodiscard]] virtual ctrl::Request head() const = 0;
  virtual void advance() = 0;

  [[nodiscard]] virtual std::uint64_t total_bytes() const = 0;
  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Set the earliest issue time for everything this source produces
  /// (back-to-back mode stamps each stage with its start time).
  virtual void set_start(Time t) = 0;

  /// Spread arrivals over [start, start + duration] by progress (paced
  /// masters such as a display controller). The default implementation does
  /// not pace - it logs a one-shot warning and leaves arrivals untouched, so
  /// a scenario that asks an unsupporting source to pace is visible instead
  /// of silently bursty.
  virtual void set_pacing(Time duration);

  /// Drain every remaining request into `out`, packed with pack_request(),
  /// in the order head()/advance() would produce them; the source is done()
  /// afterwards. The default appends per head()/advance() step; sources
  /// with a closed form override it and append whole runs.
  virtual void append_packed(PackedRuns& out);
};

}  // namespace mcm::load
