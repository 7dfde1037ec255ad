// Seeded property test of the request queue's lazy summaries. Random push,
// pop, mask, ACT and PRE sequences - shaped by the open, closed and timeout
// page policies, at depths 1-80 - run against a brute-force model of the
// live slots. After every sync the queue must agree with the model:
//   - each live slot's hit bit is (open_rows[bank] == row);
//   - no_hit_pick() equals the masked FR-FCFS scan (arb_scan) on the same
//     lanes whenever it answers, and answers whenever every bank is closed
//     and every arrival since the queue last ran empty is within the
//     horizon.
// Masked slots are popped before each sync, as the controller drains a
// stream before it arbitrates again.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "common/rng.hpp"
#include "controller/request_queue.hpp"
#include "controller/soa_kernels.hpp"

namespace mcm::ctrl {
namespace {

struct Live {
  std::uint32_t bank;
  std::uint32_t row;
  bool write;
  std::int64_t arrival;
};

enum class Shape { kOpen, kClosed, kTimeout };

class QueueModel {
 public:
  QueueModel(Rng& rng, std::uint32_t depth, std::uint32_t banks, Shape shape)
      : rng_(rng), q_(depth, banks), open_(banks, RequestQueue::kNoRow),
        shape_(shape) {}

  void step() {
    switch (rng_.next_below(6)) {
      case 0:
      case 1: push(); break;
      case 2: pop(); break;
      case 3: mask(); break;
      default: change_rows(); break;
    }
  }

  // Drain masked slots, sync, and check every property.
  void sync_and_check() {
    for (const std::uint32_t s : masked_) pop_slot(s);
    masked_.clear();
    q_.sync_rows(open_.data());
    ++syncs_;

    for (const auto& [slot, l] : live_) {
      const bool hit = open_[l.bank] == static_cast<std::int64_t>(l.row);
      ASSERT_EQ(q_.is_row_hit(slot), hit) << "slot " << slot << " bank " << l.bank;
    }
    const bool all_closed =
        std::all_of(open_.begin(), open_.end(),
                    [](std::int64_t row) { return row == RequestQueue::kNoRow; });

    if (q_.empty()) return;
    std::int64_t max_arrival = 0;
    for (const auto& [slot, l] : live_) max_arrival = std::max(max_arrival, l.arrival);
    for (const std::int64_t horizon :
         {max_arrival, max_arrival - 1, static_cast<std::int64_t>(rng_.next_below(1000))}) {
      for (const std::int64_t dir : {std::int64_t{-1}, std::int64_t{0}, std::int64_t{1}}) {
        const std::uint32_t quick = q_.no_hit_pick(horizon, dir);
        // The queue keeps an upper bound, not the exact maximum: the
        // largest arrival pushed since it last ran empty.
        if (all_closed && bound_ <= horizon) {
          ASSERT_NE(quick, RequestQueue::kNil) << "shortcut did not fire";
        }
        if (quick == RequestQueue::kNil) continue;
        ++shortcuts_;
        ASSERT_EQ(quick, kernels::arb_scan(q_.lanes(), horizon, dir))
            << "horizon " << horizon << " dir " << dir;
      }
    }
  }

  [[nodiscard]] std::uint64_t syncs() const { return syncs_; }
  [[nodiscard]] std::uint64_t shortcuts() const { return shortcuts_; }

 private:
  void push() {
    if (q_.full()) return;
    Live l{static_cast<std::uint32_t>(rng_.next_below(open_.size())),
           static_cast<std::uint32_t>(rng_.next_below(4)), rng_.next_below(2) == 0,
           static_cast<std::int64_t>(rng_.next_below(1000))};
    DecodedAddress da;
    da.bank = l.bank;
    da.row = l.row;
    const Request r{next_addr_++, l.write, Time{l.arrival}, 0};
    const std::uint32_t s = q_.push(r, da);
    live_[s] = l;
    bound_ = std::max(bound_, l.arrival);
  }

  void pop() {
    if (live_.empty()) return;
    // The head half the time (FCFS service), else any unmasked slot.
    std::uint32_t s = q_.head();
    if (rng_.next_below(2) == 0) {
      auto it = live_.begin();
      std::advance(it, static_cast<long>(rng_.next_below(live_.size())));
      s = it->first;
    }
    if (std::find(masked_.begin(), masked_.end(), s) != masked_.end()) return;
    pop_slot(s);
  }

  void mask() {
    if (live_.empty()) return;
    auto it = live_.begin();
    std::advance(it, static_cast<long>(rng_.next_below(live_.size())));
    if (std::find(masked_.begin(), masked_.end(), it->first) != masked_.end()) return;
    q_.mask_ready(it->first);
    masked_.push_back(it->first);
  }

  void pop_slot(std::uint32_t s) {
    const RequestQueue::Entry e = q_.pop(s);
    ASSERT_EQ(e.da.bank, live_.at(s).bank);
    live_.erase(s);
    if (live_.empty()) bound_ = 0;
  }

  void activate(std::uint32_t b) {
    open_[b] = static_cast<std::int64_t>(rng_.next_below(4));
    q_.mark_rows_stale(b);
  }
  void precharge(std::uint32_t b) {
    open_[b] = RequestQueue::kNoRow;
    q_.mark_rows_stale(b);
  }

  // One service's row changes, shaped like the page policy's, sometimes
  // with pushes in between; a sync follows at random, as it does before the
  // controller's next pick.
  void change_rows() {
    const auto b = static_cast<std::uint32_t>(rng_.next_below(open_.size()));
    const bool is_open = open_[b] != RequestQueue::kNoRow;
    switch (shape_) {
      case Shape::kOpen:
        if (is_open) precharge(b);  // conflict: PRE then ACT
        if (rng_.next_below(4) == 0) push();
        activate(b);
        break;
      case Shape::kClosed:
        if (is_open) precharge(b);
        activate(b);
        if (rng_.next_below(4) == 0) push();
        precharge(b);  // closed page: PRE right after the access
        break;
      case Shape::kTimeout:
        if (is_open && rng_.next_below(2) == 0) {
          precharge(b);  // the row idled past the timeout
        } else {
          if (is_open) precharge(b);
          activate(b);
        }
        break;
    }
    if (rng_.next_below(3) == 0) sync_and_check();
  }

  Rng& rng_;
  RequestQueue q_;
  std::vector<std::int64_t> open_;
  Shape shape_;
  std::map<std::uint32_t, Live> live_;
  std::vector<std::uint32_t> masked_;
  std::int64_t bound_ = 0;
  std::uint64_t next_addr_ = 0;
  std::uint64_t syncs_ = 0;
  std::uint64_t shortcuts_ = 0;
};

class QueueProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(QueueProperty, LazySummariesMatchBruteForce) {
  Rng rng(GetParam());
  std::uint64_t shortcuts = 0;
  for (const Shape shape : {Shape::kOpen, Shape::kClosed, Shape::kTimeout}) {
    for (int run = 0; run < 4; ++run) {
      const auto depth = 1 + static_cast<std::uint32_t>(rng.next_below(80));
      const std::uint32_t banks = rng.next_below(2) == 0 ? 4 : 8;
      QueueModel m(rng, depth, banks, shape);
      for (int i = 0; i < 2000; ++i) {
        m.step();
        if (::testing::Test::HasFatalFailure()) return;
      }
      m.sync_and_check();
      if (::testing::Test::HasFatalFailure()) return;
      EXPECT_GT(m.syncs(), 0u);
      shortcuts += m.shortcuts();
    }
  }
  EXPECT_GT(shortcuts, 0u) << "the no-hit shortcut was never exercised";
}

INSTANTIATE_TEST_SUITE_P(Seeds, QueueProperty, ::testing::Range<std::uint64_t>(1, 9));

}  // namespace
}  // namespace mcm::ctrl
