// A bank cluster: the set of DRAM banks behind one channel (paper: 512 Mb,
// four banks, x32). Adds the cross-bank constraints on top of the per-bank
// rules: tRRD between activates to different banks and all-banks-precharged
// refresh.
//
// State is structure-of-arrays: per-bank earliest-activate / earliest-
// precharge / earliest-CAS bounds, last column use, and open-row ids live in
// contiguous parallel lanes (picosecond int64s; open row kNoOpenRow = -1
// when precharged). One lane pass answers cluster-wide questions — the
// controller's FR-FCFS kernels compare request rows against the open-row
// lane directly, and an open-bank counter makes any_row_open() O(1) — while
// the command methods assert that every command they commit is legal.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <vector>

#include "common/units.hpp"
#include "dram/spec.hpp"

namespace mcm::dram {

class BankCluster {
 public:
  /// Open-row lane value for a precharged bank.
  static constexpr std::int64_t kNoOpenRow = -1;

  explicit BankCluster(const OrgSpec& org)
      : org_(org),
        next_act_ps_(org.banks, 0),
        next_pre_ps_(org.banks, 0),
        next_cas_ps_(org.banks, 0),
        last_use_ps_(org.banks, 0),
        open_row_(org.banks, kNoOpenRow) {}

  [[nodiscard]] const OrgSpec& org() const { return org_; }
  [[nodiscard]] std::uint32_t bank_count() const {
    return static_cast<std::uint32_t>(open_row_.size());
  }

  /// Contiguous open-row lane (bank_count() entries, kNoOpenRow when
  /// precharged) for the controller's SoA readiness/arbitration kernels.
  [[nodiscard]] const std::int64_t* open_rows() const { return open_row_.data(); }

  [[nodiscard]] bool row_open(std::uint32_t b) const {
    return open_row_[b] != kNoOpenRow;
  }
  [[nodiscard]] std::uint32_t open_row(std::uint32_t b) const {
    assert(row_open(b));
    return static_cast<std::uint32_t>(open_row_[b]);
  }
  /// Last column command issue time (for timeout page policies).
  [[nodiscard]] Time last_use(std::uint32_t b) const {
    return Time{last_use_ps_[b]};
  }

  [[nodiscard]] Time earliest_activate(std::uint32_t b) const {
    Time t = max(Time{next_act_ps_[b]}, rrd_free_);
    t = max(t, faw_free_);
    return t;
  }
  [[nodiscard]] Time earliest_precharge(std::uint32_t b) const {
    return Time{next_pre_ps_[b]};
  }
  [[nodiscard]] Time earliest_cas(std::uint32_t b) const {
    return Time{next_cas_ps_[b]};
  }

  /// Read-only per-bank view for the bank(i) call sites (tests, dumps).
  class BankView {
   public:
    BankView(const BankCluster& c, std::uint32_t b) : c_(c), b_(b) {}
    [[nodiscard]] bool row_open() const { return c_.row_open(b_); }
    [[nodiscard]] std::uint32_t open_row() const { return c_.open_row(b_); }
    [[nodiscard]] Time earliest_activate() const {
      return Time{c_.next_act_ps_[b_]};
    }
    [[nodiscard]] Time earliest_precharge() const {
      return Time{c_.next_pre_ps_[b_]};
    }
    [[nodiscard]] Time earliest_cas() const { return Time{c_.next_cas_ps_[b_]}; }
    [[nodiscard]] Time last_use() const { return c_.last_use(b_); }

   private:
    const BankCluster& c_;
    std::uint32_t b_;
  };
  [[nodiscard]] BankView bank(std::uint32_t i) const { return BankView{*this, i}; }

  void activate(Time t, std::uint32_t b, std::uint32_t row, const DerivedTiming& d) {
    assert(t >= rrd_free_);
    assert(t >= faw_free_);
    assert(!row_open(b));
    assert(t.ps() >= next_act_ps_[b]);
    open_row_[b] = static_cast<std::int64_t>(row);
    ++open_banks_;
    next_cas_ps_[b] = (t + d.cycles(d.trcd)).ps();
    next_pre_ps_[b] = (t + d.cycles(d.tras)).ps();
    next_act_ps_[b] = (t + d.cycles(d.trc)).ps();
    rrd_free_ = t + d.cycles(d.trrd);
    if (d.tfaw > 0) {
      // Sliding four-activate window: after recording this ACT, the oldest
      // of the last four bounds the next one.
      act_history_[act_head_] = t;
      act_head_ = (act_head_ + 1) % kFawWindow;
      const Time oldest = act_history_[act_head_];
      faw_free_ = oldest > Time{-1} ? oldest + d.cycles(d.tfaw) : Time::zero();
    }
  }

  void precharge(Time t, std::uint32_t b, const DerivedTiming& d) {
    assert(row_open(b));
    assert(t.ps() >= next_pre_ps_[b]);
    open_row_[b] = kNoOpenRow;
    --open_banks_;
    next_act_ps_[b] = std::max(next_act_ps_[b], (t + d.cycles(d.trp)).ps());
  }

  /// Issue a read command at t. Returns the end of the data transfer.
  [[nodiscard]] Time read(Time t, std::uint32_t b, const DerivedTiming& d) {
    assert(row_open(b));
    assert(t.ps() >= next_cas_ps_[b]);
    next_pre_ps_[b] = std::max(next_pre_ps_[b], (t + d.cycles(d.trtp)).ps());
    last_use_ps_[b] = t.ps();
    return t + d.cycles(d.cl + d.burst_ck);
  }

  /// Issue a write command at t. Returns the end of the data transfer.
  [[nodiscard]] Time write(Time t, std::uint32_t b, const DerivedTiming& d) {
    assert(row_open(b));
    assert(t.ps() >= next_cas_ps_[b]);
    const Time data_end = t + d.cycles(d.cwl + d.burst_ck);
    next_pre_ps_[b] =
        std::max(next_pre_ps_[b], (data_end + d.cycles(d.twr)).ps());
    last_use_ps_[b] = t.ps();
    return data_end;
  }

  [[nodiscard]] bool all_precharged() const { return open_banks_ == 0; }
  [[nodiscard]] bool any_row_open() const { return open_banks_ != 0; }

  /// Earliest time an all-bank refresh may issue, assuming all banks are
  /// already precharged. One pass over the activate lane.
  [[nodiscard]] Time earliest_refresh() const {
    std::int64_t t = 0;
    for (const std::int64_t a : next_act_ps_) t = std::max(t, a);
    return Time{t};
  }

  void refresh(Time t, const DerivedTiming& d) {
    assert(all_precharged());
    const std::int64_t free = (t + d.cycles(d.trfc)).ps();
    for (std::size_t b = 0; b < next_act_ps_.size(); ++b) {
      assert(t.ps() >= next_act_ps_[b]);
      next_act_ps_[b] = free;
    }
  }

 private:
  static constexpr int kFawWindow = 4;

  OrgSpec org_;
  // Parallel per-bank lanes (ps). See class comment.
  std::vector<std::int64_t> next_act_ps_;
  std::vector<std::int64_t> next_pre_ps_;
  std::vector<std::int64_t> next_cas_ps_;
  std::vector<std::int64_t> last_use_ps_;
  std::vector<std::int64_t> open_row_;
  std::uint32_t open_banks_ = 0;
  Time rrd_free_ = Time::zero();  // earliest next ACT, any bank (tRRD)
  Time faw_free_ = Time::zero();  // earliest next ACT under tFAW
  Time act_history_[kFawWindow] = {Time{-1}, Time{-1}, Time{-1}, Time{-1}};
  int act_head_ = 0;
};

}  // namespace mcm::dram
