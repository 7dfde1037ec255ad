// One channel's memory controller. Transaction-level with exact command
// timing: the controller turns each burst request into PRE/ACT/RD/WR
// commands on clock edges, interleaves periodic refresh, and drives the
// power-down governor. All DRAM state lives in a BankCluster; all energy
// activity accumulates in an EnergyLedger.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "common/stats.hpp"
#include "common/units.hpp"
#include "controller/address_mapping.hpp"
#include "controller/policies.hpp"
#include "controller/request.hpp"
#include "controller/request_queue.hpp"
#include "controller/soa_kernels.hpp"
#include "dram/bank_cluster.hpp"
#include "dram/command.hpp"
#include "dram/energy.hpp"
#include "dram/spec.hpp"
#include "sim/clock.hpp"

namespace mcm::obs {
class TraceWriter;
}  // namespace mcm::obs

namespace mcm::ctrl {

struct ControllerStats {
  /// Latency histogram span (ns). Covers queueing up to a whole 30 fps
  /// frame period; later samples saturate into the overflow bucket.
  static constexpr double kLatencyHistMaxNs = 4.0e7;
  static constexpr std::size_t kLatencyHistBuckets = 4000;
  /// Queue-depth histogram span (sampled at every enqueue).
  static constexpr double kQueueHistMax = 64.0;

  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t row_hits = 0;
  std::uint64_t row_misses = 0;     // bank closed, ACT needed
  std::uint64_t row_conflicts = 0;  // other row open, PRE+ACT needed
  std::uint64_t activates = 0;
  std::uint64_t precharges = 0;
  std::uint64_t refreshes = 0;
  std::uint64_t bytes = 0;
  Histogram latency_hist_ns{0.0, kLatencyHistMaxNs, kLatencyHistBuckets};
  Histogram queue_depth{0.0, kQueueHistMax, static_cast<std::size_t>(kQueueHistMax)};

  /// Request arrival -> data end moments; the histogram's own accumulator,
  /// so the hot path pays for one statistics update, not two.
  [[nodiscard]] const Accumulator& latency_ns() const {
    return latency_hist_ns.summary();
  }

  [[nodiscard]] std::uint64_t accesses() const { return reads + writes; }
  [[nodiscard]] double row_hit_rate() const {
    const auto n = accesses();
    return n > 0 ? static_cast<double>(row_hits) / static_cast<double>(n) : 0.0;
  }
};

class MemoryController {
 public:
  MemoryController(const dram::DeviceSpec& spec, Frequency freq, AddressMux mux,
                   ControllerConfig cfg);

  [[nodiscard]] bool can_accept() const { return queue_.size() < cfg_.queue_depth; }
  [[nodiscard]] bool has_pending() const { return !queue_.empty(); }
  [[nodiscard]] std::size_t pending() const { return queue_.size(); }
  [[nodiscard]] std::size_t queue_capacity() const { return cfg_.queue_depth; }

  /// Admit one request: decode once, seed the SoA lanes (row-hit bit from
  /// the queue's open-row mirror), sample the queue-depth histogram. Kept in
  /// the header so the engine's feed loop pays no call overhead.
  void enqueue(const Request& r) {
    assert(can_accept());
    queue_.push(r, mapper_.decode(r.addr));
    stats_.queue_depth.add(static_cast<double>(queue_.size()));
  }

  /// Serve one pending request (FR-FCFS pick) and return its completion.
  /// Precondition: has_pending().
  Completion process_one() {
    assert(has_pending());
    if (stream_pos_ < stream_.size()) return pop_stream();
    queue_.sync_rows(cluster_.open_rows());  // hit bits exact from here on
    if (try_stream()) return pop_stream();
    return process_one_slow();
  }

  /// Engine ordering hint: the time up to which this channel has committed
  /// activity. Channels with the smallest horizon are served first so the
  /// multi-channel interleaving stays causal.
  [[nodiscard]] Time horizon() const { return horizon_; }

  /// Close the books at the end of a run: precharge open rows, account the
  /// idle tail (power-down + catch-up refreshes) up to `end`.
  void finalize(Time end);

  [[nodiscard]] const ControllerStats& stats() const { return stats_; }

  /// The energy books. Hot-path command tallies batch into pending deltas
  /// (pure integer/duration sums, so flush order never changes the totals);
  /// reading the ledger flushes them first.
  [[nodiscard]] const dram::EnergyLedger& ledger() const {
    flush_ledger();
    return ledger_;
  }

  [[nodiscard]] const dram::DerivedTiming& timing() const { return d_; }
  /// The device this controller drives. Heterogeneous systems bind a
  /// different spec per channel, so consumers must read it from here rather
  /// than from a system-wide config.
  [[nodiscard]] const dram::DeviceSpec& device() const { return spec_; }
  [[nodiscard]] const AddressMapper& mapper() const { return mapper_; }
  [[nodiscard]] const std::vector<dram::CommandRecord>& trace() const { return trace_; }

  /// Accesses served per bank (index = bank id).
  [[nodiscard]] const std::vector<std::uint64_t>& bank_accesses() const {
    return bank_accesses_;
  }

  /// Attach (or detach with nullptr) a structured trace sink; every issued
  /// command and request span is forwarded tagged with `channel_id`.
  void set_trace_sink(obs::TraceWriter* sink, std::uint32_t channel_id) {
    trace_sink_ = sink;
    trace_channel_ = channel_id;
  }


 private:
  /// FR-FCFS candidate selection; returns a queue slot index.
  [[nodiscard]] std::uint32_t pick_best() const;

  /// Full per-request service: refresh handling, idle accounting, PRE/ACT as
  /// needed, then the column command.
  Completion process_one_slow();

  /// Row-hit streaming fast path: when the head of the queue starts a run of
  /// ready, same-direction row hits with no refresh due inside it, issue the
  /// whole run analytically in one step (bulk stats/energy/trace booking)
  /// into stream_. Returns false when the head does not qualify; the
  /// completions are then handed out one per process_one() call with the
  /// public horizon advancing per request, so the engine-visible behavior is
  /// bit-identical to the slow path. See docs/performance.md.
  bool try_stream();

  /// Hand out the next buffered fast-path completion.
  Completion pop_stream() {
    const Streamed& se = stream_[stream_pos_];
    const Completion c = se.c;
    const std::uint32_t s = se.slot;
    ++stream_pos_;
    // Starvation bookkeeping, verbatim from the slow path: serving the head
    // resets the skip count; bypassing a *ready* head increments it.
    if (s == queue_.head()) {
      head_skips_ = 0;
    } else if (queue_.front().req.arrival <= horizon_) {
      ++head_skips_;
    }
    queue_.pop(s);
    horizon_ = max(horizon_, c.done);
    if (stream_pos_ == stream_.size()) {
      stream_.clear();
      stream_pos_ = 0;
    }
    return c;
  }

  /// Precharge bank `b` at `tp`: DRAM state, open-row cache, stats, trace.
  void close_row(Time tp, std::uint32_t b);

  /// Book idle residency from horizon_ up to `t` (entering power-down or
  /// self refresh when the gap allows) and return the earliest legal command
  /// time (>= t; includes the tXP/tXSR wake penalty).
  Time account_idle_until(Time t);

  /// True when the gap [horizon_, until] qualifies for self refresh.
  [[nodiscard]] bool selfrefresh_eligible(Time until) const;

  /// Perform one all-bank refresh no earlier than `not_before`; updates
  /// horizon_. Callers manage next_ref_due_ / the postpone debt.
  void perform_refresh(Time not_before);

  /// Serve or postpone refreshes that have come due by `now`.
  void handle_due_refreshes(Time now);

  /// Repay postponed refreshes (idle gap or before self refresh).
  void flush_refresh_debt();

  /// Book a command into the in-memory trace and the structured sink. The
  /// disabled-path checks inline into the hot loops; only the sink write
  /// stays out of line (obs::TraceWriter is incomplete here).
  void record(Time at, dram::Command c, std::uint32_t bank = 0, std::uint32_t row = 0) {
    if (cfg_.record_trace) trace_.push_back(dram::CommandRecord{at, c, bank, row});
    if (trace_sink_ != nullptr) record_sink(at, c, bank, row);
  }
  void record_sink(Time at, dram::Command c, std::uint32_t bank, std::uint32_t row);

  /// Issue a command at the earliest edge >= t that the command bus allows;
  /// returns the issue time and bumps the command-bus cursor.
  Time issue_edge(Time t);

  dram::DeviceSpec spec_;
  dram::DerivedTiming d_;
  sim::Clock clock_;
  AddressMapper mapper_;
  dram::BankCluster cluster_;
  ControllerConfig cfg_;

  /// Move the pending batched counts/residency into ledger_. Logically
  /// const: the pending deltas are an encoding detail of the ledger.
  void flush_ledger() const;

  RequestQueue queue_;
  std::uint32_t head_skips_ = 0;

  static_assert(RequestQueue::kNoRow == dram::BankCluster::kNoOpenRow,
                "the queue's open-row mirror reads the cluster's lane");

  /// Buffered fast-path completions (stream_pos_ = next to hand out) with
  /// the queue slot each one came from — the stream follows FR-FCFS pick
  /// order, so slots pop mid-queue, not just at the head.
  struct Streamed {
    Completion c;
    std::uint32_t slot;
  };
  std::vector<Streamed> stream_;
  std::size_t stream_pos_ = 0;
  /// Scratch: rank-3 candidate slots in FIFO age order (see try_stream).
  std::vector<std::uint32_t> cand_;

  Time cmd_free_ = Time::zero();       // earliest edge for the next command
  Time bus_free_ = Time::zero();       // end of last data transfer
  bool bus_used_ = false;
  bool last_data_write_ = false;
  Time last_wr_data_end_ = Time{-1'000'000'000};
  Time next_ref_due_;
  std::uint32_t ref_debt_ = 0;         // postponed refreshes outstanding
  Time horizon_ = Time::zero();        // residency accounted up to here

  ControllerStats stats_;
  mutable dram::EnergyLedger ledger_;
  /// Batched energy deltas (tentpole: one flush per ledger read / finalize
  /// instead of one read-modify-write per command). All fields commute, so
  /// the flush schedule cannot change any total.
  struct PendingLedger {
    std::uint64_t n_act = 0;
    std::uint64_t n_rd = 0;
    std::uint64_t n_wr = 0;
    std::int64_t active_standby_ps = 0;

    [[nodiscard]] bool empty() const {
      return n_act == 0 && n_rd == 0 && n_wr == 0 && active_standby_ps == 0;
    }
  };
  mutable PendingLedger pend_;
  std::vector<dram::CommandRecord> trace_;
  std::vector<std::uint64_t> bank_accesses_;
  obs::TraceWriter* trace_sink_ = nullptr;  // not owned; nullptr = disabled
  std::uint32_t trace_channel_ = 0;
};

}  // namespace mcm::ctrl
