// The benchmark's four workloads. Each is one fixed list of work items (a
// "pass") that a closed loop of at most two clients works through: a client
// takes the next item as soon as it has finished the last one. The timed
// run repeats passes; the traced run repeats them with spans on.
//
//   fig_grid        Fig. 3/4/5 grid points, paper-default controller,
//                   1 frame, 2 point clients x 1 sim worker.
//   policy_sweep    page policy x scheduler at queue depth 64, plus the
//                   concurrent-mode (paced display/audio) points; 2 x 1.
//   sharded_frames  multi-frame I/P runs through the epoch-batched engine,
//                   one point at a time with 2 sim workers.
//   fuzz_certify    random differential-verification scenarios from the
//                   seed, production vs golden model; 1 client, each
//                   scenario run with 1 sim worker.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/experiments.hpp"
#include "explore/spec.hpp"
#include "load/stream_cache.hpp"
#include "verify/scenario.hpp"

namespace perfbench {

class SpanRecorder;

enum class ItemKind : std::uint8_t { kPoint, kCase };

struct Item {
  ItemKind kind = ItemKind::kPoint;
  std::string label;
  // kPoint: one FrameSimulator::run plus its report export.
  mcm::multichannel::SystemConfig system;
  mcm::video::UseCaseParams usecase;
  mcm::core::FrameSimOptions sim;
  // kCase: one differential-verification scenario.
  mcm::verify::Scenario scenario;
};

struct Workload {
  std::string name;
  unsigned clients = 2;     // closed-loop clients (item-level threads)
  unsigned sim_workers = 1; // sim workers inside one item
  std::vector<Item> items;  // one pass, most expensive first
};

/// A grid point run the way explore::Orchestrator runs it (what
/// bench_fig3/4/5 and paper_report do): the point's own load seed, derived
/// from its coordinates and the base seed, and one sim worker.
[[nodiscard]] Item explore_item(
    const mcm::core::ExperimentConfig& base, const mcm::explore::ExplorePoint& p,
    mcm::core::ExecutionMode mode = mcm::core::ExecutionMode::kStateMachine);

/// Names of every workload, in the order the documentation lists them.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Generate a workload's inputs. Grid workloads are fixed grids; the seed
/// only drives the fuzz scenarios. Throws std::invalid_argument on an
/// unknown name.
[[nodiscard]] Workload make_workload(const std::string& name, std::uint64_t seed,
                                     SpanRecorder& spans);

/// The stream FrameSimulator::run reads for a state-machine point (the GOP
/// I-frame variant with `intra`), from the process-wide stream cache, keyed
/// exactly as the simulator keys it; built on first use.
[[nodiscard]] std::shared_ptr<const mcm::load::CachedWorkload> cached_stream(
    const mcm::multichannel::SystemConfig& system,
    const mcm::video::UseCaseParams& usecase, const mcm::load::LoadOptions& load,
    bool intra);

/// Cold-build every stream (and, for multi-worker points, the chunk
/// metadata) the workload's points read from the process-wide stream cache,
/// exactly as FrameSimulator::run would key them.
void build_streams(const Workload& w, SpanRecorder& spans);

/// What one item produced.
struct ItemOutcome {
  bool ok = false;
  std::string error;          // why the item failed
  std::uint64_t requests = 0; // simulated DRAM requests (production side)
  std::string digest;         // kPoint: digest of the exported point JSON
  double total_power_mw = 0;  // kPoint
  double sim_ms = 0;          // kPoint: host ms inside FrameSimulator::run
};

/// Run one item. Never throws: exceptions become failed outcomes. Spans are
/// recorded under `item_id` when the recorder is enabled.
[[nodiscard]] ItemOutcome run_item(const Item& item, SpanRecorder& spans,
                                   std::uint64_t item_id);

/// Digest of a point's run-report entry ({"label": ..., export_result
/// fields}): FNV-1a 64 of the compact JSON dump, as 16 hex digits.
[[nodiscard]] std::string point_digest(const std::string& label,
                                       const mcm::core::FrameSimResult& r);
[[nodiscard]] std::string fnv1a_hex(const std::string& text);

/// One of the paper's Fig. 5 power anchors at 400 MHz.
struct PaperAnchor {
  mcm::video::H264Level level;
  std::uint32_t channels;
  double paper_mw;
};
[[nodiscard]] const std::vector<PaperAnchor>& paper_anchors();

/// Mean absolute relative error (%) of `measured_mw[i]` against
/// paper_anchors()[i].paper_mw.
[[nodiscard]] double paper_err_pct(const std::vector<double>& measured_mw);

}  // namespace perfbench
