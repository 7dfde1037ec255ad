#include "controller/memory_controller.hpp"

#include <cassert>

#include "obs/prof.hpp"
#include "obs/trace.hpp"

namespace mcm::ctrl {

namespace {

/// Interned kernel-phase ids (see docs/performance.md, "Data-oriented
/// kernels"): readiness_scan is the masked SoA kernel itself, arbitration
/// the full FR-FCFS pick around it, ledger_flush the batched energy drain.
struct KernelPhases {
  obs::prof::PhaseId arbitration;
  obs::prof::PhaseId readiness_scan;
  obs::prof::PhaseId ledger_flush;
};

const KernelPhases& kernel_phases() {
  static const KernelPhases p{obs::prof::phase_id("ctrl/arbitration"),
                              obs::prof::phase_id("ctrl/readiness_scan"),
                              obs::prof::phase_id("ctrl/ledger_flush")};
  return p;
}

}  // namespace

MemoryController::MemoryController(const dram::DeviceSpec& spec, Frequency freq,
                                   AddressMux mux, ControllerConfig cfg)
    : spec_(spec),
      d_(dram::DerivedTiming::derive(spec.timing, freq)),
      clock_(d_.clk),
      mapper_(spec.org, mux),
      cluster_(spec.org),
      cfg_(cfg),
      queue_(cfg.queue_depth, spec.org.banks),
      // Refresh-free devices (PCM-like class) park the due time at the
      // sentinel so the periodic-refresh loop never fires.
      next_ref_due_(d_.has_refresh() ? d_.cycles(d_.trefi) : Time::max()),
      bank_accesses_(spec.org.banks, 0) {
  stream_.reserve(cfg_.queue_depth);
  cand_.reserve(cfg_.queue_depth);
}

void MemoryController::record_sink(Time at, dram::Command c, std::uint32_t bank,
                                   std::uint32_t row) {
  trace_sink_->command(trace_channel_, at, c, bank, row);
}

Time MemoryController::issue_edge(Time t) {
  const Time at = clock_.next_edge(max(t, cmd_free_));
  cmd_free_ = at + d_.cycles(1);
  return at;
}

void MemoryController::close_row(Time tp, std::uint32_t b) {
  cluster_.precharge(tp, b, d_);
  queue_.mark_rows_stale();
  ++stats_.precharges;
  record(tp, dram::Command::kPrecharge, b);
}

std::uint32_t MemoryController::pick_best() const {
  assert(!queue_.empty());
  const std::uint32_t head = queue_.head();
  if (cfg_.scheduler == SchedulerPolicy::kFcfs || queue_.size() == 1) return head;
  if (head_skips_ >= cfg_.max_skips) return head;  // starvation guard

  // Ready requests (arrival reached) compete FR-FCFS style: row hits first,
  // then matching bus direction, then queue order. When nothing is ready the
  // earliest arrival is served - a future-dated request must never block an
  // earlier one behind it (paced sources depend on this).
  const std::int64_t dir = bus_used_ ? (last_data_write_ ? 1 : 0) : -1;

  // A ready head that is a row hit in the bus direction ranks 3 and beats
  // everything behind it; skip the scan (the common streaming shape). The
  // queue's hit_write lane answers both the hit and the direction check.
  if (queue_.hit_write(head) == (RequestQueue::kHitBit | dir) &&
      queue_.entry(head).req.arrival <= horizon_) {
    return head;
  }

  // Every bank closed and every slot arrived (the closed-page shape): the
  // winner is the oldest slot in the bus direction, else the head, known
  // without a scan.
  const std::uint32_t no_hit = queue_.no_hit_pick(horizon_.ps(), dir);
  if (no_hit != RequestQueue::kNil) return no_hit;

  const bool profiling = obs::prof::enabled();
  const std::int64_t t0 = profiling ? obs::prof::now_ns() : 0;
  const std::uint32_t ready =
      kernels::arb_scan(queue_.lanes(), horizon_.ps(), dir);
  if (profiling) {
    const std::int64_t t1 = obs::prof::now_ns();
    obs::prof::tally(kernel_phases().readiness_scan, t1 - t0);
  }
  if (ready != RequestQueue::kNil) {
    if (profiling) {
      obs::prof::tally(kernel_phases().arbitration, obs::prof::now_ns() - t0);
    }
    return ready;
  }
  const std::uint32_t earliest = queue_.earliest_slot();
  if (profiling) {
    obs::prof::tally(kernel_phases().arbitration, obs::prof::now_ns() - t0);
  }
  return earliest;
}

bool MemoryController::selfrefresh_eligible(Time until) const {
  // Refresh-free cells have no self-refresh state to enter.
  if (!d_.has_refresh()) return false;
  if (cfg_.selfrefresh_idle_cycles < 0 || until <= horizon_) return false;
  // Slack for the precharge-all prologue and the tXSR wake epilogue.
  const Time min_gap = d_.cycles(cfg_.selfrefresh_idle_cycles + d_.tcke +
                                 d_.txsr + d_.trp + 2 +
                                 static_cast<int>(cluster_.bank_count()));
  return until - horizon_ >= min_gap;
}

Time MemoryController::account_idle_until(Time t) {
  if (t <= horizon_) return horizon_;
  const bool rows_open = cluster_.any_row_open();
  const auto standby = rows_open ? dram::PowerState::kActiveStandby
                                 : dram::PowerState::kPrechargeStandby;
  const auto pd = rows_open ? dram::PowerState::kActivePowerDown
                            : dram::PowerState::kPowerDown;
  const Time gap = t - horizon_;

  if (selfrefresh_eligible(t)) {
    // Long gap: self refresh. Close any open rows first, then CKE low; the
    // device refreshes internally (callers repay postponed refreshes before
    // reaching this branch).
    Time last_pre = Time{-1};
    for (std::uint32_t b = 0; b < cluster_.bank_count(); ++b) {
      if (!cluster_.row_open(b)) continue;
      const Time tp = issue_edge(max(clock_.next_edge(horizon_),
                                     cluster_.earliest_precharge(b)));
      close_row(tp, b);
      last_pre = max(last_pre, tp);
    }
    Time sre =
        clock_.next_edge(horizon_ + d_.cycles(cfg_.selfrefresh_idle_cycles));
    if (last_pre > Time{-1}) sre = max(sre, last_pre + d_.cycles(d_.trp));
    sre = max(sre, cmd_free_);
    const Time srx = clock_.next_edge(t);
    ledger_.add_residency(standby, sre - horizon_);
    ledger_.add_residency(dram::PowerState::kSelfRefresh, srx - sre);
    ++ledger_.n_selfrefresh_entries;
    record(sre, dram::Command::kSelfRefreshEnter);
    record(srx, dram::Command::kSelfRefreshExit);
    horizon_ = srx + d_.cycles(d_.txsr);
    ledger_.add_residency(standby, horizon_ - srx);
    cmd_free_ = max(cmd_free_, horizon_);
    next_ref_due_ = max(next_ref_due_, horizon_ + d_.cycles(d_.trefi));
    return horizon_;
  }

  const bool pd_enabled = cfg_.powerdown_idle_cycles >= 0;
  const Time min_gap =
      d_.cycles(cfg_.powerdown_idle_cycles + d_.tcke + d_.txp + 2);
  if (pd_enabled && gap >= min_gap) {
    const Time pde = clock_.next_edge(horizon_ + d_.cycles(cfg_.powerdown_idle_cycles));
    const Time pdx = clock_.next_edge(t);
    ledger_.add_residency(standby, pde - horizon_);
    ledger_.add_residency(pd, pdx - pde);
    ++ledger_.n_powerdown_entries;
    record(pde, dram::Command::kPowerDownEnter);
    record(pdx, dram::Command::kPowerDownExit);
    horizon_ = pdx + d_.cycles(d_.txp);  // wake penalty before the next command
    ledger_.add_residency(standby, horizon_ - pdx);
    cmd_free_ = max(cmd_free_, horizon_);
  } else {
    ledger_.add_residency(standby, gap);
    horizon_ = t;
    cmd_free_ = max(cmd_free_, clock_.next_edge(horizon_));
  }
  return horizon_;
}

void MemoryController::perform_refresh(Time not_before) {
  // Wake (if idle) no later than the due time.
  account_idle_until(max(horizon_, not_before));

  // Close any open rows.
  Time t = clock_.next_edge(max(horizon_, not_before));
  for (std::uint32_t b = 0; b < cluster_.bank_count(); ++b) {
    if (!cluster_.row_open(b)) continue;
    const Time tp = issue_edge(max(t, cluster_.earliest_precharge(b)));
    close_row(tp, b);
  }
  const Time tr = issue_edge(cluster_.earliest_refresh());
  cluster_.refresh(tr, d_);
  record(tr, dram::Command::kRefresh);
  ++stats_.refreshes;
  ++ledger_.n_ref;

  const Time ref_end = tr + d_.cycles(d_.trfc);
  // tRFC window counts as precharge standby; the refresh event energy is the
  // increment over that baseline.
  ledger_.add_residency(dram::PowerState::kPrechargeStandby,
                        ref_end - max(horizon_, tr));
  if (tr > horizon_) {
    ledger_.add_residency(cluster_.any_row_open()
                              ? dram::PowerState::kActiveStandby
                              : dram::PowerState::kPrechargeStandby,
                          tr - horizon_);
  }
  horizon_ = max(horizon_, ref_end);
  cmd_free_ = max(cmd_free_, ref_end);
}

void MemoryController::handle_due_refreshes(Time now) {
  while (next_ref_due_ <= now) {
    if (has_pending() && ref_debt_ < cfg_.refresh_postpone_max) {
      ++ref_debt_;  // postpone: repay during the next idle gap
    } else {
      perform_refresh(next_ref_due_);
    }
    next_ref_due_ += d_.cycles(d_.trefi);
  }
}

void MemoryController::flush_refresh_debt() {
  while (ref_debt_ > 0) {
    perform_refresh(horizon_);
    --ref_debt_;
  }
}

bool MemoryController::try_stream() {
  // The fast path covers exactly the state where the slow path degenerates
  // to a bare column command: open-page policy, a warm data bus, and a pick
  // winner that is a ready row hit travelling in the bus's current
  // direction (rank 3). The stream follows *pick order*, not FIFO order:
  // each step reruns the arbitration (head fast-out, masked scan, starvation
  // guard) over the not-yet-buffered slots and buffers the winner, so mixed
  // read/write traffic streams exactly the requests FR-FCFS would serve.
  // With the winner's arrival at or before the horizon, idle accounting
  // books nothing; with the next refresh due beyond the horizon the refresh
  // machinery is a no-op - so issuing the column command directly is
  // bit-identical. Requests enqueued between the buffered hand-outs cannot
  // perturb the picks: only ready rank-3 winners are buffered, and a ready
  // rank-3 entry at maximal rank beats every younger arrival.
  if (!cfg_.stream_row_hits || cfg_.page_policy != PagePolicy::kOpen ||
      !bus_used_) {
    return false;
  }
  assert(stream_.empty());

  const bool writing = last_data_write_;
  // One lane compare covers both rank-3 conditions: row hit + direction.
  const std::int64_t want =
      RequestQueue::kHitBit | (writing ? RequestQueue::kWriteBit : 0);
  const bool frfcfs = cfg_.scheduler != SchedulerPolicy::kFcfs;
  Time h = horizon_;          // simulated per-request horizon
  Time busy = Time::zero();   // bulk active-standby residency
  // The head and skip count pick_best would see at each simulated step:
  // eff_head = oldest not-yet-buffered slot (identical to the real head at
  // the matching pop_stream hand-out, since pops run in buffer order).
  std::uint32_t eff_head = queue_.head();
  std::uint32_t sim_skips = head_skips_;
  std::size_t remaining = queue_.size();

  // FCFS follows the forced head and needs no candidates: a head that is
  // not rank 3 ends the stream before it starts.
  //
  // FR-FCFS collects the rank-3 candidates in FIFO age order, in one walk.
  // Rank 3 is the maximal rank, so among *ready* entries FR-FCFS reduces to
  // "oldest ready candidate" - each pick is a short ordered probe of this
  // list, not a rescan of the lanes. Ranks cannot change inside the stream
  // (rows only move on ACT/PRE, which end it) and readiness only grows with
  // h, so the list stays exhaustive for the whole call.
  cand_.clear();
  if (!frfcfs) {
    if (queue_.hit_write(eff_head) != want) return false;
  } else {
    for (std::uint32_t s0 = queue_.head(); s0 != RequestQueue::kNil;
         s0 = queue_.next(s0)) {
      if (queue_.hit_write(s0) == want) cand_.push_back(s0);
    }
    if (cand_.empty()) return false;
  }
  std::size_t cand_pos = 0;  // list prefix already served (masked)

  while (remaining > 0) {
    // pick_best over the unbuffered slots, with the simulated head/skips.
    std::uint32_t s = RequestQueue::kNil;
    if (!frfcfs || remaining == 1 || sim_skips >= cfg_.max_skips) {
      s = eff_head;  // forced head (FCFS / lone entry / starvation guard)
      if (queue_.hit_write(s) != want) break;  // needs full service
    } else {
      for (std::size_t j = cand_pos; j < cand_.size(); ++j) {
        const std::uint32_t c = cand_[j];
        if (queue_.is_masked(c)) {
          if (j == cand_pos) ++cand_pos;
          continue;
        }
        if (queue_.entry(c).req.arrival <= h) {
          s = c;
          break;
        }
      }
      // No ready rank-3 winner: whatever pick_best would choose instead
      // (a lower rank or the earliest-arrival fallback) needs full service.
      if (s == RequestQueue::kNil) break;
    }
    const RequestQueue::Entry& e = queue_.entry(s);
    const Time arrival_edge = clock_.next_edge(max(e.req.arrival, Time::zero()));
    if (arrival_edge > h) break;    // idle gap: the slow path books residency
    if (next_ref_due_ <= h) break;  // a refresh (or postpone) interposes

    // The slow path's column command, verbatim, minus the branches the pick
    // conditions above have already discharged.
    Time tc = max(arrival_edge, cluster_.earliest_cas(e.da.bank));
    Time data_end;
    if (writing) {
      tc = max(tc, bus_free_ - d_.cycles(d_.cwl));  // same direction: no gap
      tc = issue_edge(tc);
      data_end = cluster_.write(tc, e.da.bank, d_);
      record(tc, dram::Command::kWrite, e.da.bank);
      last_wr_data_end_ = data_end;
    } else {
      tc = max(tc, last_wr_data_end_ + d_.cycles(d_.twtr));  // tWTR
      tc = max(tc, bus_free_ - d_.cycles(d_.cl));
      tc = issue_edge(tc);
      data_end = cluster_.read(tc, e.da.bank, d_);
      record(tc, dram::Command::kRead, e.da.bank);
    }
    bus_free_ = data_end;
    stats_.latency_hist_ns.add((data_end - e.req.arrival).ns());
    ++bank_accesses_[e.da.bank];
    if (trace_sink_ != nullptr) {
      trace_sink_->span(trace_channel_, e.req.addr, e.req.is_write,
                        e.req.arrival, tc, data_end, true);
    }
    stream_.push_back(Streamed{Completion{e.req, tc, data_end, true}, s});
    queue_.mask_ready(s);  // stop competing in the remaining picks
    // Starvation bookkeeping with the pre-service horizon, mirroring the
    // slow path (pop_stream repeats this against the real queue state).
    if (s == eff_head) {
      sim_skips = 0;
      do {
        eff_head = queue_.next(eff_head);
      } while (eff_head != RequestQueue::kNil && queue_.is_masked(eff_head));
    } else if (queue_.entry(eff_head).req.arrival <= h) {
      ++sim_skips;
    }
    --remaining;
    if (data_end > h) {
      busy += data_end - h;
      h = data_end;
    }
  }
  if (stream_.empty()) return false;
  // Stats and energy tallies batch over the run: every entry is a row hit
  // in one direction, so the per-request increments collapse to one add
  // per counter (the latency histogram above keeps its per-entry order).
  const std::uint64_t n = stream_.size();
  stats_.row_hits += n;
  stats_.bytes += n * spec_.org.bytes_per_burst();
  if (writing) {
    stats_.writes += n;
    pend_.n_wr += n;
  } else {
    stats_.reads += n;
    pend_.n_rd += n;
  }
  // Residency telescopes over the run: each request's (data_end - horizon)
  // increment sums to the run's total busy extension.
  pend_.active_standby_ps += busy.ps();
  return true;
}

Completion MemoryController::process_one_slow() {
  const std::uint32_t idx = pick_best();
  if (idx == queue_.head()) {
    head_skips_ = 0;
  } else if (queue_.front().req.arrival <= horizon_) {
    // Only a genuine bypass of a *ready* head counts toward starvation; a
    // future-dated head served via the earliest-arrival fallback is not
    // being starved.
    ++head_skips_;
  }
  const RequestQueue::Entry entry = queue_.pop(idx);
  const Request& r = entry.req;
  const DecodedAddress& da = entry.da;

  // Serve (or postpone) any due refreshes first - unless the idle gap up to
  // the arrival will be spent in self refresh, which keeps the cells alive
  // internally.
  const Time arrival_edge = clock_.next_edge(max(r.arrival, Time::zero()));
  if (selfrefresh_eligible(arrival_edge)) {
    flush_refresh_debt();  // repay before the self-refresh window
  } else {
    // Repay postponed refreshes in a real idle gap.
    if (arrival_edge > horizon_ + d_.cycles(d_.trfc)) flush_refresh_debt();
    handle_due_refreshes(max(arrival_edge, horizon_));
  }

  // Idle-gap accounting (and power-down wake) up to the arrival. This only
  // books residency and, on wake, pushes cmd_free_ past tXP; it must NOT
  // serialize commands behind the previous data transfer (commands pipeline
  // under in-flight data).
  account_idle_until(arrival_edge);
  const Time t = arrival_edge;

  const Time busy_from = horizon_;

  bool row_hit = false;
  Time first_cmd = Time::zero();
  bool have_first_cmd = false;

  // Timeout page policy: a row that has idled past the threshold counts as
  // closed (a real controller would have precharged it; we issue the PRE
  // now, which is timing-conservative).
  const bool row_open = cluster_.row_open(da.bank);
  const bool stale =
      cfg_.page_policy == PagePolicy::kTimeout && row_open &&
      t > cluster_.bank(da.bank).last_use() +
              d_.cycles(static_cast<int>(cfg_.page_timeout_cycles));

  if (row_open && cluster_.open_rows()[da.bank] == static_cast<std::int64_t>(da.row) &&
      !stale) {
    row_hit = true;
    ++stats_.row_hits;
  } else {
    if (row_open) {
      const Time tp = issue_edge(max(t, cluster_.earliest_precharge(da.bank)));
      close_row(tp, da.bank);
      first_cmd = tp;
      have_first_cmd = true;
      ++stats_.row_conflicts;
    } else {
      ++stats_.row_misses;
    }
    const Time ta = issue_edge(max(t, cluster_.earliest_activate(da.bank)));
    cluster_.activate(ta, da.bank, da.row, d_);
    queue_.mark_rows_stale();
    ++stats_.activates;
    ++pend_.n_act;
    record(ta, dram::Command::kActivate, da.bank, da.row);
    if (!have_first_cmd) {
      first_cmd = ta;
      have_first_cmd = true;
    }
  }

  // Column command, honoring shared data-bus occupancy and turnarounds.
  Time tc = max(t, cluster_.earliest_cas(da.bank));
  Time data_end;
  if (r.is_write) {
    Time min_data = bus_free_;
    if (bus_used_ && !last_data_write_) min_data += d_.cycles(1);  // RD -> WR gap
    tc = max(tc, min_data - d_.cycles(d_.cwl));
    tc = issue_edge(tc);
    data_end = cluster_.write(tc, da.bank, d_);
    record(tc, dram::Command::kWrite, da.bank);
    last_wr_data_end_ = data_end;
    last_data_write_ = true;
    ++stats_.writes;
    ++pend_.n_wr;
  } else {
    tc = max(tc, last_wr_data_end_ + d_.cycles(d_.twtr));  // tWTR
    Time min_data = bus_free_;
    if (bus_used_ && last_data_write_) min_data += d_.cycles(1);  // WR -> RD gap
    tc = max(tc, min_data - d_.cycles(d_.cl));
    tc = issue_edge(tc);
    data_end = cluster_.read(tc, da.bank, d_);
    record(tc, dram::Command::kRead, da.bank);
    last_data_write_ = false;
    ++stats_.reads;
    ++pend_.n_rd;
  }
  if (!have_first_cmd) first_cmd = tc;
  bus_free_ = data_end;
  bus_used_ = true;
  stats_.bytes += spec_.org.bytes_per_burst();
  stats_.latency_hist_ns.add((data_end - r.arrival).ns());
  ++bank_accesses_[da.bank];
  if (trace_sink_ != nullptr) {
    trace_sink_->span(trace_channel_, r.addr, r.is_write, r.arrival, first_cmd,
                      data_end, row_hit);
  }

  // Busy residency: rows are open throughout service.
  if (data_end > busy_from) {
    pend_.active_standby_ps += (data_end - busy_from).ps();
    horizon_ = data_end;
  }

  // Closed-page policy: precharge immediately after the access.
  if (cfg_.page_policy == PagePolicy::kClosed) {
    const Time tp = issue_edge(cluster_.earliest_precharge(da.bank));
    close_row(tp, da.bank);
    if (tp + d_.cycles(1) > horizon_) {
      ledger_.add_residency(dram::PowerState::kActiveStandby,
                            tp + d_.cycles(1) - horizon_);
      horizon_ = tp + d_.cycles(1);
    }
  }

  return Completion{r, first_cmd, data_end, row_hit};
}

void MemoryController::flush_ledger() const {
  if (pend_.empty()) return;
  const bool profiling = obs::prof::enabled();
  const std::int64_t t0 = profiling ? obs::prof::now_ns() : 0;
  ledger_.n_act += pend_.n_act;
  ledger_.n_rd += pend_.n_rd;
  ledger_.n_wr += pend_.n_wr;
  ledger_.t_active_standby += Time{pend_.active_standby_ps};
  pend_ = PendingLedger{};
  if (profiling) {
    obs::prof::tally(kernel_phases().ledger_flush, obs::prof::now_ns() - t0);
  }
}

void MemoryController::finalize(Time end) {
  assert(queue_.empty());
  // Precharge open rows so the idle tail sits in (deep) precharge power-down.
  for (std::uint32_t b = 0; b < cluster_.bank_count(); ++b) {
    if (!cluster_.row_open(b)) continue;
    const Time tp = issue_edge(cluster_.earliest_precharge(b));
    close_row(tp, b);
    if (tp + d_.cycles(1) > horizon_) {
      ledger_.add_residency(dram::PowerState::kActiveStandby,
                            tp + d_.cycles(1) - horizon_);
      horizon_ = tp + d_.cycles(1);
    }
  }
  // Catch-up refreshes across the tail (the device keeps its cells alive;
  // each wake costs one refresh event's energy) - or one long self-refresh
  // window when the governor allows it.
  flush_refresh_debt();
  if (!selfrefresh_eligible(end)) handle_due_refreshes(end);
  account_idle_until(end);
  horizon_ = max(horizon_, end);
}

}  // namespace mcm::ctrl
