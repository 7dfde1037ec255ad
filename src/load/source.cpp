#include "load/source.hpp"

#include <mutex>

#include "common/log.hpp"

namespace mcm::load {

void TrafficSource::set_pacing(Time duration) {
  if (duration <= Time::zero()) return;  // nothing to spread over
  // One warning per process: sweeps call set_pacing once per stage per grid
  // point, and a warning storm would bury the signal it carries.
  static std::once_flag warned;
  std::call_once(warned, [&] {
    const std::string_view n = name();
    MCM_LOG_WARN(
        "traffic source '%.*s' does not support pacing; arrivals stay at the "
        "stage start (further unsupported pacing requests are not reported)",
        static_cast<int>(n.size()), n.data());
  });
}

void TrafficSource::append_packed(PackedRuns& out) {
  while (!done()) {
    const ctrl::Request r = head();
    advance();
    out.append(pack_request(r.addr, r.is_write));
  }
}

}  // namespace mcm::load
