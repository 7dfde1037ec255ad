// Trace record & replay: capture the full 720p30 use-case request stream to
// a text trace, reload it, and replay it through a memory configuration of
// choice. The same path replays externally generated traces (one DRAM burst
// per line: "<arrival_ps> <R|W> 0x<addr> [source]").
//
//   $ ./trace_replay                # record + replay via a temp file
//   $ ./trace_replay mytrace.txt    # replay an existing trace file
#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/mcm.hpp"
#include "load/trace.hpp"

namespace {

using namespace mcm;

std::vector<ctrl::Request> record_usecase(video::H264Level level) {
  video::UseCaseParams p;
  p.level = level;
  const video::UseCaseModel model(p);
  const video::SurfaceLayout layout(model);
  std::vector<ctrl::Request> all;
  for (auto& src : load::build_stage_sources(model, layout)) {
    const auto part = load::record_source(*src);
    all.insert(all.end(), part.begin(), part.end());
  }
  // Keep the demo trace file a reasonable size (~12 MB on disk); a full
  // frame is ~4M requests. Replay timing scales accordingly.
  constexpr std::size_t kMaxRequests = 500'000;
  if (all.size() > kMaxRequests) all.resize(kMaxRequests);
  return all;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<ctrl::Request> trace;
  if (argc > 1) {
    std::ifstream in(argv[1]);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", argv[1]);
      return 1;
    }
    try {
      trace = load::read_trace(in);
    } catch (const load::TraceError& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 1;
    }
    std::printf("Loaded %zu requests from %s\n", trace.size(), argv[1]);
  } else {
    std::printf("Recording one 720p30 frame of the use case...\n");
    trace = record_usecase(video::H264Level::k31);
    const char* path = "usecase_720p30.trace";
    std::ofstream out(path);
    load::write_trace(out, trace);
    std::printf("Wrote %zu requests (%.1f MB of traffic) to %s\n", trace.size(),
                trace.size() * 16.0 / 1e6, path);
    // Round-trip through the file to prove the format is lossless.
    std::ifstream in(path);
    trace = load::read_trace(in);
  }

  for (const std::uint32_t channels : {1u, 2u, 4u}) {
    multichannel::SystemConfig cfg;
    cfg.channels = channels;
    multichannel::MemorySystem sys(cfg);
    load::TraceReplaySource replay(trace, "replay");
    for (; !replay.done(); replay.advance()) sys.push(replay.head());
    const Time last = sys.drain();
    const auto stats = sys.stats();
    std::printf("%u channel(s): served in %8.2f ms, %s, row hits %.1f%%\n",
                channels, last.ms(),
                format_bandwidth(static_cast<double>(stats.bytes) / last.seconds())
                    .c_str(),
                100.0 * stats.row_hit_rate());
  }
  return 0;
}
