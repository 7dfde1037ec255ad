// Per-layer probes for the traced run. Each probe calls one module's public
// functions on fixed, canonical inputs (independent of the workload and the
// seed) inside a span, and turns the timing into one layer cell:
//
//   load          cold StreamCache::get per format, chunk_meta
//   controller    controller-only replay of one channel's share of the
//                 cached 720p30 stream, fast (paper) and slow (closed/FCFS/
//                 depth 64) configurations
//   multichannel  run_sequential_frames on 8 channels minus the
//                 controller-only time (the channel-select heap);
//                 MemorySystem::finalize and power()
//   core          run_sharded_frames vs run_sequential_frames; sharded
//                 streams at 2 vs 1 workers; solo point times
//   explore       Orchestrator::run wall vs the sum of solo point times
//   obs           export_result + RunReport::write
//   verify        the three differ calls and random_scenario per case
//
// Probes also re-check what they can: the two engines must serve the same
// request count, and 2-worker runs must digest like their 1-worker twins.
#pragma once

#include <map>
#include <string>
#include <vector>

namespace perfbench {

class SpanRecorder;

struct LayerCell {
  double value = 0;
  std::string unit;
};

struct LayerReport {
  std::map<std::string, LayerCell> cells;
  std::vector<std::string> failures;  // check failures found by the probes
  std::vector<std::string> notes;     // human-readable detail lines
  void set(const std::string& name, double value, const std::string& unit) {
    cells[name] = LayerCell{value, unit};
  }
};

/// Run every probe; drops the stream cache before and after.
[[nodiscard]] LayerReport run_layer_probes(SpanRecorder& spans);

}  // namespace perfbench
