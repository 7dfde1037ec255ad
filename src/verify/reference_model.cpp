#include "verify/reference_model.hpp"

#include <stdexcept>

#include "controller/request.hpp"
#include "load/stream_cache.hpp"

namespace mcm::verify {
namespace {

using ctrl::Request;

[[noreturn, gnu::cold, gnu::noinline]] void fail(const char* what) {
  throw std::logic_error(std::string("reference invariant violated: ") + what);
}

// Inline test, out-of-line throw: the model runs its checks on every
// command and request, and only the comparison belongs on that path.
inline void check(bool cond, const char* what) {
  if (!cond) [[unlikely]] fail(what);
}

/// Plain reimplementation of the Table II stripe interleaving.
struct RefRoute {
  std::uint32_t channel = 0;
  std::uint64_t local = 0;
};

RefRoute route_address(std::uint64_t global, std::uint32_t channels,
                       std::uint32_t granularity) {
  const std::uint64_t stripe = global / granularity;
  RefRoute r;
  r.channel = static_cast<std::uint32_t>(stripe % channels);
  r.local = (stripe / channels) * granularity + global % granularity;
  return r;
}

/// One bank's state: open row plus earliest-legal times for each command
/// kind, recomputed here from the datasheet rules rather than shared with
/// the production BankCluster.
struct RefBank {
  bool open = false;
  std::uint32_t row = 0;
  Time next_act = Time::zero();
  Time next_pre = Time::zero();
  Time next_cas = Time::zero();
  Time last_use = Time::zero();
};

/// A queued request with its bank and row, decoded once at enqueue.
struct RefQueued {
  Request req;
  std::uint32_t bank = 0;
  std::uint32_t row = 0;
};

/// One channel of the reference system: front-end pacing + controller +
/// bank cluster, all in one deliberately straightforward class.
class RefChannel {
 public:
  // Each channel binds its own device class (timing + organization) and the
  // vault-adjusted interconnect; both come from the same SystemConfig
  // helpers the production MemorySystem constructs from, so the per-channel
  // resolution itself is shared data, not duplicated logic. Each is
  // resolved once and handed to the private constructor below.
  RefChannel(const multichannel::SystemConfig& sys, std::uint32_t channel_id,
             InjectedBug bug)
      : RefChannel(sys, channel_id, bug, sys.channel_device(channel_id),
                   sys.channel_interconnect(channel_id)) {}

  [[nodiscard]] bool can_accept() const { return queue_.size() < cfg_.queue_depth; }
  [[nodiscard]] bool has_pending() const { return !queue_.empty(); }
  [[nodiscard]] Time horizon() const { return horizon_; }
  [[nodiscard]] RefChannelResult take_result() { return std::move(res_); }

  /// Size the event record for `routed` requests (event_reservation).
  void reserve_events(std::uint64_t routed) {
    res_.events.reserve(event_reservation(routed));
  }

  void enqueue(Request r) {
    check(can_accept(), "enqueue into a full queue");
    if (request_interval_cycles_ > 0) {
      // Front-end serialization: at most one handoff per interval.
      r.arrival = max(r.arrival, next_accept_);
      next_accept_ = r.arrival + Time{clk_ps_ * request_interval_cycles_};
    }
    queue_.push_back(RefQueued{r, bank_of(r.addr), row_of(r.addr)});
    ++res_.route_count;
  }

  /// Serve one request; returns its completion time including the round
  /// trip over the DRAM interconnect.
  Time process_one() {
    check(has_pending(), "process_one on an empty queue");
    const std::size_t idx = pick_best();
    if (idx == 0) {
      head_skips_ = 0;
    } else if (queue_.front().req.arrival <= horizon_) {
      ++head_skips_;
      check(head_skips_ <= cfg_.max_skips, "head skipped past the starvation bound");
    }
    const Request r = queue_[idx].req;
    const std::uint32_t bank = queue_[idx].bank;
    const std::uint32_t row = queue_[idx].row;
    queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(idx));

    // Refresh handling first — unless the idle gap up to the arrival will be
    // covered by self refresh.
    const Time arrival_edge = next_edge(max(r.arrival, Time::zero()));
    if (selfrefresh_eligible(arrival_edge)) {
      flush_refresh_debt();
    } else {
      if (arrival_edge > horizon_ + cyc(d_.trfc)) flush_refresh_debt();
      handle_due_refreshes(max(arrival_edge, horizon_));
    }

    account_idle_until(arrival_edge);
    const Time t = arrival_edge;
    const Time busy_from = horizon_;

    bool row_hit = false;
    Time first_cmd = Time::zero();
    bool have_first_cmd = false;

    RefBank& b = banks_[bank];
    const bool stale = cfg_.page_policy == ctrl::PagePolicy::kTimeout && b.open &&
                       t > b.last_use + cyc(static_cast<int>(cfg_.page_timeout_cycles));

    if (b.open && b.row == row && !stale) {
      row_hit = true;
      ++res_.row_hits;
    } else {
      if (b.open) {
        const Time tp = issue_edge(max(t, earliest_precharge(bank)));
        close_row(tp, bank);
        first_cmd = tp;
        have_first_cmd = true;
        ++res_.row_conflicts;
      } else {
        ++res_.row_misses;
      }
      const Time ta = issue_edge(max(t, earliest_activate(bank)));
      activate(ta, bank, row);
      ++res_.activates;
      ++res_.n_act;
      record(ta, dram::Command::kActivate, bank, row);
      if (!have_first_cmd) {
        first_cmd = ta;
        have_first_cmd = true;
      }
    }

    // Column command with data-bus occupancy and turnaround gaps.
    Time tc = max(t, b.next_cas);
    Time data_end;
    if (r.is_write) {
      Time min_data = bus_free_;
      if (bus_used_ && !last_data_write_) min_data += cyc(1);  // RD -> WR gap
      tc = max(tc, min_data - cyc(d_.cwl));
      tc = issue_edge(tc);
      check(tc >= b.next_cas, "WR before tRCD elapsed");
      check(b.open, "WR to a closed row");
      data_end = tc + cyc(d_.cwl + d_.burst_ck);
      check(data_end - cyc(d_.burst_ck) >= bus_free_, "write data overlaps the bus");
      b.next_pre = max(b.next_pre, data_end + cyc(d_.twr));
      b.last_use = tc;
      record(tc, dram::Command::kWrite, bank);
      last_wr_data_end_ = data_end;
      last_data_write_ = true;
      ++res_.writes;
      ++res_.n_wr;
    } else {
      if (bug_ != InjectedBug::kIgnoreTwtr) {
        tc = max(tc, last_wr_data_end_ + cyc(d_.twtr));  // tWTR
      }
      Time min_data = bus_free_;
      if (bus_used_ && last_data_write_) min_data += cyc(1);  // WR -> RD gap
      tc = max(tc, min_data - cyc(d_.cl));
      tc = issue_edge(tc);
      check(tc >= b.next_cas, "RD before tRCD elapsed");
      check(b.open, "RD from a closed row");
      data_end = tc + cyc(d_.cl + d_.burst_ck);
      check(data_end - cyc(d_.burst_ck) >= bus_free_, "read data overlaps the bus");
      b.next_pre = max(b.next_pre, tc + cyc(d_.trtp));
      b.last_use = tc;
      record(tc, dram::Command::kRead, bank);
      last_data_write_ = false;
      ++res_.reads;
      ++res_.n_rd;
    }
    if (!have_first_cmd) first_cmd = tc;
    bus_free_ = data_end;
    bus_used_ = true;
    res_.bytes += org_.bytes_per_burst();
    ++res_.bank_accesses[bank];
    span(r, first_cmd, data_end, row_hit);

    if (data_end > busy_from) {
      add_residency(dram::PowerState::kActiveStandby, data_end - busy_from);
      set_horizon(data_end);
    }

    if (cfg_.page_policy == ctrl::PagePolicy::kClosed) {
      const Time tp = issue_edge(earliest_precharge(bank));
      close_row(tp, bank);
      if (tp + cyc(1) > horizon_) {
        add_residency(dram::PowerState::kActiveStandby, tp + cyc(1) - horizon_);
        set_horizon(tp + cyc(1));
      }
    }

    return data_end + interconnect_latency_ * 2;
  }

  void finalize(Time end) {
    check(queue_.empty(), "finalize with pending requests");
    for (std::uint32_t bk = 0; bk < org_.banks; ++bk) {
      if (!banks_[bk].open) continue;
      const Time tp = issue_edge(earliest_precharge(bk));
      close_row(tp, bk);
      if (tp + cyc(1) > horizon_) {
        add_residency(dram::PowerState::kActiveStandby, tp + cyc(1) - horizon_);
        set_horizon(tp + cyc(1));
      }
    }
    flush_refresh_debt();
    if (!selfrefresh_eligible(end)) handle_due_refreshes(end);
    account_idle_until(end);
    set_horizon(max(horizon_, end));
  }

 private:
  RefChannel(const multichannel::SystemConfig& sys, std::uint32_t channel_id,
             InjectedBug bug, const dram::DeviceSpec& dev,
             const channel::InterconnectSpec& link)
      : d_(dram::DerivedTiming::derive(dev.timing, sys.freq)),
        org_(dev.org),
        cfg_(sys.controller),
        bug_(bug),
        id_(channel_id),
        mux_(sys.mux),
        interconnect_latency_(link.latency),
        request_interval_cycles_(link.request_interval_cycles),
        clk_ps_(d_.clk.ps()),
        banks_(org_.banks),
        last_wr_data_end_(Time{-1'000'000'000}),
        // Refresh-free classes (PCM-like) park the due time at the sentinel.
        next_ref_due_(d_.has_refresh() ? cyc(d_.trefi) : Time::max()) {
    res_.bank_accesses.assign(org_.banks, 0);
    rows_per_bank_ = org_.rows_per_bank();
    bursts_per_row_ = org_.bursts_per_row();
    capacity_bursts_ = org_.capacity_bytes() / org_.bytes_per_burst();
  }

  [[nodiscard]] Time cyc(std::int64_t n) const { return Time{clk_ps_ * n}; }

  [[nodiscard]] Time next_edge(Time t) const {
    const std::int64_t q = (t.ps() + clk_ps_ - 1) / clk_ps_;
    return Time{q * clk_ps_};
  }

  Time issue_edge(Time t) {
    const Time at = next_edge(max(t, cmd_free_));
    check(at.ps() % clk_ps_ == 0, "command off the clock edge");
    cmd_free_ = at + cyc(1);
    return at;
  }

  void set_horizon(Time h) {
    check(h >= horizon_, "horizon moved backwards");
    horizon_ = h;
  }

  // -- address decode (own implementation, mirrors the bit layouts) --------
  [[nodiscard]] std::uint64_t burst_index(std::uint64_t addr) const {
    return (addr / org_.bytes_per_burst()) % capacity_bursts_;
  }
  [[nodiscard]] std::uint32_t bank_of(std::uint64_t addr) const {
    const std::uint64_t burst = burst_index(addr);
    switch (mux_) {
      case ctrl::AddressMux::kRBC:
        return static_cast<std::uint32_t>((burst / bursts_per_row_) % org_.banks);
      case ctrl::AddressMux::kRBCXor: {
        const std::uint64_t rest = burst / bursts_per_row_;
        const auto bank = static_cast<std::uint32_t>(rest % org_.banks);
        const auto row = static_cast<std::uint32_t>(rest / org_.banks);
        return (bank ^ (row & (org_.banks - 1))) % org_.banks;
      }
      case ctrl::AddressMux::kBRC:
        return static_cast<std::uint32_t>(burst / bursts_per_row_ / rows_per_bank_);
      case ctrl::AddressMux::kRCB:
        return static_cast<std::uint32_t>(burst % org_.banks);
    }
    return 0;
  }
  [[nodiscard]] std::uint32_t row_of(std::uint64_t addr) const {
    const std::uint64_t burst = burst_index(addr);
    switch (mux_) {
      case ctrl::AddressMux::kRBC:
      case ctrl::AddressMux::kRBCXor:
        return static_cast<std::uint32_t>(burst / bursts_per_row_ / org_.banks);
      case ctrl::AddressMux::kBRC:
        return static_cast<std::uint32_t>((burst / bursts_per_row_) % rows_per_bank_);
      case ctrl::AddressMux::kRCB:
        return static_cast<std::uint32_t>(burst / org_.banks / bursts_per_row_);
    }
    return 0;
  }

  // -- cluster timing ------------------------------------------------------
  [[nodiscard]] Time earliest_activate(std::uint32_t bank) const {
    Time t = banks_[bank].next_act;
    t = max(t, rrd_free_);
    t = max(t, faw_free_);
    return t;
  }
  [[nodiscard]] Time earliest_precharge(std::uint32_t bank) const {
    return banks_[bank].next_pre;
  }

  void activate(Time t, std::uint32_t bank, std::uint32_t row) {
    RefBank& b = banks_[bank];
    check(!b.open, "ACT on a bank with an open row");
    check(t >= earliest_activate(bank), "ACT before the bank/cluster allows");
    b.open = true;
    b.row = row;
    b.next_cas = t + cyc(d_.trcd);
    b.next_pre = bug_ == InjectedBug::kIgnoreTras ? t : t + cyc(d_.tras);
    b.next_act = t + cyc(d_.trc);
    rrd_free_ = t + cyc(d_.trrd);
    if (d_.tfaw > 0) {
      act_history_[act_head_] = t;
      act_head_ = (act_head_ + 1) % 4;
      const Time oldest = act_history_[act_head_];
      faw_free_ = oldest > Time{-1} ? oldest + cyc(d_.tfaw) : Time::zero();
    }
  }

  void close_row(Time tp, std::uint32_t bank) {
    RefBank& b = banks_[bank];
    check(b.open, "PRE on a precharged bank");
    check(tp >= b.next_pre, "PRE before tRAS/tWR/tRTP elapsed");
    b.open = false;
    b.next_act = max(b.next_act, tp + cyc(d_.trp));
    ++res_.precharges;
    record(tp, dram::Command::kPrecharge, bank);
  }

  [[nodiscard]] bool any_row_open() const {
    for (const RefBank& b : banks_) {
      if (b.open) return true;
    }
    return false;
  }

  // -- scheduling ----------------------------------------------------------
  [[nodiscard]] std::size_t pick_best() const {
    if (cfg_.scheduler == ctrl::SchedulerPolicy::kFcfs || queue_.size() == 1) return 0;
    if (head_skips_ >= cfg_.max_skips) return 0;  // starvation guard

    std::size_t best_ready = queue_.size();  // sentinel: none ready
    int best_rank = -1;
    std::size_t earliest = 0;
    Time earliest_arrival = Time::max();
    for (std::size_t i = 0; i < queue_.size(); ++i) {
      const Request& r = queue_[i].req;
      if (r.arrival < earliest_arrival) {
        earliest_arrival = r.arrival;
        earliest = i;
      }
      if (r.arrival > horizon_) continue;  // not ready
      const RefBank& b = banks_[queue_[i].bank];
      const bool hit = b.open && b.row == queue_[i].row;
      const bool same_dir = bus_used_ && r.is_write == last_data_write_;
      const int rank = (hit ? 2 : 0) + (same_dir ? 1 : 0);
      if (rank > best_rank) {
        best_rank = rank;
        best_ready = i;
        if (rank == 3 && i == 0) break;  // front request already optimal
      }
    }
    return best_ready != queue_.size() ? best_ready : earliest;
  }

  // -- idle, power-down, self refresh, refresh -----------------------------
  [[nodiscard]] bool selfrefresh_eligible(Time until) const {
    if (!d_.has_refresh()) return false;  // no self-refresh state to enter
    if (cfg_.selfrefresh_idle_cycles < 0 || until <= horizon_) return false;
    const Time min_gap = cyc(cfg_.selfrefresh_idle_cycles + d_.tcke + d_.txsr +
                             d_.trp + 2 + static_cast<int>(org_.banks));
    return until - horizon_ >= min_gap;
  }

  Time account_idle_until(Time t) {
    if (t <= horizon_) return horizon_;
    const bool rows_open = any_row_open();
    const auto standby = rows_open ? dram::PowerState::kActiveStandby
                                   : dram::PowerState::kPrechargeStandby;
    const auto pd = rows_open ? dram::PowerState::kActivePowerDown
                              : dram::PowerState::kPowerDown;
    const Time gap = t - horizon_;

    if (selfrefresh_eligible(t)) {
      Time last_pre = Time{-1};
      for (std::uint32_t bk = 0; bk < org_.banks; ++bk) {
        if (!banks_[bk].open) continue;
        const Time tp = issue_edge(max(next_edge(horizon_), earliest_precharge(bk)));
        close_row(tp, bk);
        last_pre = max(last_pre, tp);
      }
      Time sre = next_edge(horizon_ + cyc(cfg_.selfrefresh_idle_cycles));
      if (last_pre > Time{-1}) sre = max(sre, last_pre + cyc(d_.trp));
      sre = max(sre, cmd_free_);
      const Time srx = next_edge(t);
      add_residency(standby, sre - horizon_);
      add_residency(dram::PowerState::kSelfRefresh, srx - sre);
      ++res_.n_selfrefresh_entries;
      record(sre, dram::Command::kSelfRefreshEnter);
      record(srx, dram::Command::kSelfRefreshExit);
      set_horizon(srx + cyc(d_.txsr));
      add_residency(standby, horizon_ - srx);
      cmd_free_ = max(cmd_free_, horizon_);
      next_ref_due_ = max(next_ref_due_, horizon_ + cyc(d_.trefi));
      return horizon_;
    }

    const bool pd_enabled = cfg_.powerdown_idle_cycles >= 0;
    const Time min_gap = cyc(cfg_.powerdown_idle_cycles + d_.tcke + d_.txp + 2);
    if (pd_enabled && gap >= min_gap) {
      const Time pde = next_edge(horizon_ + cyc(cfg_.powerdown_idle_cycles));
      const Time pdx = next_edge(t);
      add_residency(standby, pde - horizon_);
      add_residency(pd, pdx - pde);
      ++res_.n_powerdown_entries;
      record(pde, dram::Command::kPowerDownEnter);
      record(pdx, dram::Command::kPowerDownExit);
      if (bug_ == InjectedBug::kFreePowerdownExit) {
        set_horizon(pdx);  // deliberately skips the tXP wake penalty
      } else {
        set_horizon(pdx + cyc(d_.txp));
      }
      add_residency(standby, horizon_ - pdx);
      cmd_free_ = max(cmd_free_, horizon_);
    } else {
      add_residency(standby, gap);
      set_horizon(t);
      cmd_free_ = max(cmd_free_, next_edge(horizon_));
    }
    return horizon_;
  }

  void perform_refresh(Time not_before) {
    account_idle_until(max(horizon_, not_before));

    const Time t = next_edge(max(horizon_, not_before));
    for (std::uint32_t bk = 0; bk < org_.banks; ++bk) {
      if (!banks_[bk].open) continue;
      const Time tp = issue_edge(max(t, earliest_precharge(bk)));
      close_row(tp, bk);
    }
    Time earliest = Time::zero();
    for (const RefBank& b : banks_) earliest = max(earliest, b.next_act);
    const Time tr = issue_edge(earliest);
    check(!any_row_open(), "REF with a row open");
    check(tr >= earliest, "REF before all banks are ready");
    for (RefBank& b : banks_) b.next_act = tr + cyc(d_.trfc);
    record(tr, dram::Command::kRefresh);
    ++res_.refreshes;
    ++res_.n_ref;

    const Time ref_end = tr + cyc(d_.trfc);
    add_residency(dram::PowerState::kPrechargeStandby, ref_end - max(horizon_, tr));
    if (tr > horizon_) {
      add_residency(any_row_open() ? dram::PowerState::kActiveStandby
                                   : dram::PowerState::kPrechargeStandby,
                    tr - horizon_);
    }
    set_horizon(max(horizon_, ref_end));
    cmd_free_ = max(cmd_free_, ref_end);
  }

  void handle_due_refreshes(Time now) {
    while (next_ref_due_ <= now) {
      if (has_pending() && ref_debt_ < cfg_.refresh_postpone_max) {
        ++ref_debt_;
      } else {
        perform_refresh(next_ref_due_);
      }
      next_ref_due_ += cyc(d_.trefi);
    }
  }

  void flush_refresh_debt() {
    while (ref_debt_ > 0) {
      perform_refresh(horizon_);
      --ref_debt_;
    }
  }

  // -- bookkeeping ---------------------------------------------------------
  void add_residency(dram::PowerState state, Time dt) {
    check(dt >= Time::zero(), "negative residency interval");
    switch (state) {
      case dram::PowerState::kActiveStandby: res_.t_active_standby_ps += dt.ps(); break;
      case dram::PowerState::kPrechargeStandby: res_.t_precharge_standby_ps += dt.ps(); break;
      case dram::PowerState::kActivePowerDown: res_.t_active_powerdown_ps += dt.ps(); break;
      case dram::PowerState::kPowerDown: res_.t_powerdown_ps += dt.ps(); break;
      case dram::PowerState::kSelfRefresh: res_.t_selfrefresh_ps += dt.ps(); break;
    }
  }

  void record(Time at, dram::Command c, std::uint32_t bank = 0, std::uint32_t row = 0) {
    obs::TraceEvent e;
    e.kind = obs::TraceEvent::Kind::kCommand;
    e.channel = id_;
    e.at = at;
    e.cmd = c;
    e.bank = bank;
    e.row = row;
    res_.events.push_back(e);
  }

  void span(const Request& r, Time first_cmd, Time data_end, bool row_hit) {
    obs::TraceEvent e;
    e.kind = obs::TraceEvent::Kind::kSpan;
    e.channel = id_;
    e.addr = r.addr;
    e.is_write = r.is_write;
    e.arrival = r.arrival;
    e.first_cmd = first_cmd;
    e.done = data_end;
    e.row_hit = row_hit;
    res_.events.push_back(e);
  }

  dram::DerivedTiming d_;
  dram::OrgSpec org_;
  ctrl::ControllerConfig cfg_;
  InjectedBug bug_;
  std::uint32_t id_;
  ctrl::AddressMux mux_;
  Time interconnect_latency_;
  int request_interval_cycles_;
  std::int64_t clk_ps_;

  std::uint64_t rows_per_bank_ = 0;
  std::uint32_t bursts_per_row_ = 0;
  std::uint64_t capacity_bursts_ = 0;

  std::vector<RefBank> banks_;
  Time rrd_free_ = Time::zero();
  Time faw_free_ = Time::zero();
  Time act_history_[4] = {Time{-1}, Time{-1}, Time{-1}, Time{-1}};
  int act_head_ = 0;

  std::vector<RefQueued> queue_;
  std::uint32_t head_skips_ = 0;

  Time cmd_free_ = Time::zero();
  Time bus_free_ = Time::zero();
  bool bus_used_ = false;
  bool last_data_write_ = false;
  Time last_wr_data_end_;
  Time next_ref_due_;
  std::uint32_t ref_debt_ = 0;
  Time horizon_ = Time::zero();
  Time next_accept_ = Time::zero();

  RefChannelResult res_;
};

}  // namespace

RefRunOutput run_reference(const Scenario& scenario) {
  const multichannel::SystemConfig sys = scenario.system_config();
  if (sys.interleave_bytes < sys.device.org.bytes_per_burst()) {
    throw std::invalid_argument("interleave below the DRAM burst size");
  }
  const std::uint32_t burst = sys.device.org.bytes_per_burst();

  std::vector<RefChannel> channels;
  channels.reserve(sys.channels);
  for (std::uint32_t c = 0; c < sys.channels; ++c) {
    channels.emplace_back(sys, c, scenario.inject);
  }
  // Size each channel's event record from the requests routed to it.
  std::vector<std::uint64_t> routed(sys.channels, 0);
  for (const ScenarioFrame& f : scenario.frames) {
    for (const ScenarioStage& stage : f.stages) {
      for (const std::uint64_t packed : stage.reqs) {
        const std::uint64_t global = load::CachedStage::addr_of(packed);
        ++routed[route_address(global, sys.channels, sys.interleave_bytes).channel];
      }
    }
  }
  for (std::uint32_t c = 0; c < sys.channels; ++c) channels[c].reserve_events(routed[c]);

  // Serve one request on the most-behind pending channel (ties to the
  // lowest index), exactly the production engine's ordering rule.
  const auto process_next = [&]() -> Time {
    std::uint32_t best = sys.channels;
    for (std::uint32_t c = 0; c < sys.channels; ++c) {
      if (!channels[c].has_pending()) continue;
      if (best == sys.channels || channels[c].horizon() < channels[best].horizon()) {
        best = c;
      }
    }
    check(best != sys.channels, "process_next with nothing pending");
    return channels[best].process_one();
  };
  const auto any_pending = [&] {
    for (const RefChannel& c : channels) {
      if (c.has_pending()) return true;
    }
    return false;
  };

  RefRunOutput out;
  const Time period{scenario.period_ps};
  Time t = Time::zero();
  for (std::size_t f = 0; f < scenario.frames.size(); ++f) {
    const Time frame_start = t;
    Time stage_start = frame_start;
    for (const ScenarioStage& stage : scenario.frames[f].stages) {
      Time last_done = stage_start;
      for (const std::uint64_t packed : stage.reqs) {
        const std::uint64_t global = load::CachedStage::addr_of(packed);
        const RefRoute routed =
            route_address(global, sys.channels, sys.interleave_bytes);
        Request r;
        r.addr = routed.local;
        r.is_write = load::CachedStage::is_write_of(packed);
        r.arrival = stage_start;
        r.source = stage.source;
        while (!channels[routed.channel].can_accept()) {
          last_done = max(last_done, process_next());
        }
        channels[routed.channel].enqueue(r);
      }
      // Stage barrier: the next stage consumes this stage's output.
      while (any_pending()) last_done = max(last_done, process_next());
      stage_start = max(stage_start, last_done);
      if (f == 0) {
        out.stage_names.push_back(stage.name);
        out.stage_bytes.push_back(stage.reqs.size() * burst);
        out.stage_completed_ps.push_back(stage_start.ps());
      }
    }
    out.per_frame_access_ps.push_back((stage_start - frame_start).ps());
    t = max(frame_start + period, stage_start);
  }
  out.end_time_ps = t.ps();

  const Time window =
      max(t, period * static_cast<std::int64_t>(scenario.frames.size()));
  out.window_ps = window.ps();
  for (RefChannel& c : channels) c.finalize(window);

  out.channels.reserve(sys.channels);
  for (RefChannel& c : channels) out.channels.push_back(c.take_result());
  return out;
}

}  // namespace mcm::verify
