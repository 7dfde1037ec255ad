#include "verify/workload_scenario.hpp"

#include "workload/workload.hpp"

namespace mcm::verify {

Scenario scenario_from_workload(const workload::WorkloadSpec& spec) {
  const workload::CompiledWorkload compiled = workload::compile_workload(spec);

  Scenario s;
  s.device = spec.device;
  s.channels = spec.channels;
  s.freq_mhz = spec.freq_mhz;
  s.interleave_bytes = spec.interleave_bytes;
  s.period_ps = spec.period_ps;

  ScenarioFrame frame;
  for (const auto& stage : compiled.frame->stages) {
    ScenarioStage st;
    st.name = stage.name;
    st.source = stage.source_id;
    st.reqs.assign(stage.reqs.begin(), stage.reqs.end());
    frame.stages.push_back(std::move(st));
  }
  s.frames.assign(static_cast<std::size_t>(spec.frames), frame);
  return s;
}

}  // namespace mcm::verify
