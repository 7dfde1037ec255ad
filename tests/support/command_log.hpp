// Test-side bridge from a controller's trace hook to the independent
// protocol checker: a spool attached with set_trace_sink (or
// MemorySystem::attach_trace) records every command edge, and command_log
// hands those edges to dram::TimingChecker in emission order.
#pragma once

#include <vector>

#include "dram/command.hpp"
#include "obs/trace.hpp"

namespace mcm::test {

/// The command events of `spool` (request spans dropped), in emission order.
inline std::vector<dram::CommandRecord> command_log(const obs::TraceSpool& spool) {
  std::vector<dram::CommandRecord> out;
  for (const obs::TraceEvent& e : spool.events()) {
    if (e.kind == obs::TraceEvent::Kind::kCommand) {
      out.push_back(dram::CommandRecord{e.at, e.cmd, e.bank, e.row});
    }
  }
  return out;
}

}  // namespace mcm::test
