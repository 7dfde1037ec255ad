#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "controller/request_queue.hpp"

namespace mcm::ctrl {
namespace {

// All-banks-closed open-row lane for pushes that don't care about hit bits.
constexpr std::uint32_t kBanks = 8;
constexpr std::array<std::int64_t, kBanks> kClosed{-1, -1, -1, -1, -1, -1, -1, -1};

Request req(std::uint64_t addr) { return Request{addr, false, Time::zero(), 0}; }

Request req_at(std::uint64_t addr, std::int64_t arrival_ps, bool write = false) {
  return Request{addr, write, Time{arrival_ps}, 0};
}

DecodedAddress da(std::uint32_t bank, std::uint32_t row) {
  DecodedAddress d;
  d.bank = bank;
  d.row = row;
  return d;
}

std::vector<std::uint64_t> fifo_addrs(const RequestQueue& q) {
  std::vector<std::uint64_t> out;
  for (std::uint32_t s = q.head(); s != RequestQueue::kNil; s = q.next(s)) {
    out.push_back(q.entry(s).req.addr);
  }
  return out;
}

TEST(RequestQueue, PushPopKeepsFifoOrder) {
  RequestQueue q(4, kBanks);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.capacity(), 4u);
  q.push(req(10), da(0, 0));
  q.push(req(20), da(1, 0));
  q.push(req(30), da(2, 0));
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(fifo_addrs(q), (std::vector<std::uint64_t>{10, 20, 30}));
  EXPECT_EQ(q.pop(q.head()).req.addr, 10u);
  EXPECT_EQ(q.pop(q.head()).req.addr, 20u);
  EXPECT_EQ(q.pop(q.head()).req.addr, 30u);
  EXPECT_TRUE(q.empty());
}

TEST(RequestQueue, MiddleUnlinkPreservesOrderOfRest) {
  RequestQueue q(4, kBanks);
  q.push(req(1), da(0, 0));
  const std::uint32_t mid = q.push(req(2), da(0, 1));
  q.push(req(3), da(0, 2));
  EXPECT_EQ(q.pop(mid).req.addr, 2u);
  EXPECT_EQ(fifo_addrs(q), (std::vector<std::uint64_t>{1, 3}));
}

TEST(RequestQueue, TailUnlinkThenPushAppendsAtEnd) {
  RequestQueue q(4, kBanks);
  q.push(req(1), da(0, 0));
  const std::uint32_t tail = q.push(req(2), da(0, 1));
  q.pop(tail);
  q.push(req(3), da(0, 2));
  EXPECT_EQ(fifo_addrs(q), (std::vector<std::uint64_t>{1, 3}));
}

TEST(RequestQueue, SlotsAreReusedWithoutGrowth) {
  RequestQueue q(2, kBanks);
  for (int i = 0; i < 100; ++i) {
    q.push(req(static_cast<std::uint64_t>(i)), da(0, 0));
    q.push(req(static_cast<std::uint64_t>(i) + 1000), da(0, 1));
    EXPECT_TRUE(q.full());
    EXPECT_EQ(q.pop(q.head()).req.addr, static_cast<std::uint64_t>(i));
    EXPECT_EQ(q.pop(q.head()).req.addr, static_cast<std::uint64_t>(i) + 1000);
    EXPECT_TRUE(q.empty());
  }
}

TEST(RequestQueue, CarriesDecodedAddress) {
  RequestQueue q(2, kBanks);
  const std::uint32_t s = q.push(req(42), da(3, 17));
  EXPECT_EQ(q.entry(s).da.bank, 3u);
  EXPECT_EQ(q.entry(s).da.row, 17u);
  EXPECT_EQ(q.front().da.bank, 3u);
}

TEST(RequestQueue, HitBitSeededFromOpenRows) {
  RequestQueue q(4, kBanks);
  std::array<std::int64_t, kBanks> open = kClosed;
  open[1] = 17;  // bank 1 opens row 17
  q.mark_rows_stale(1);
  q.sync_rows(open.data());
  const std::uint32_t hit = q.push(req(1), da(1, 17));
  const std::uint32_t other_row = q.push(req(2), da(1, 3));
  const std::uint32_t closed = q.push(req(3), da(0, 17));
  EXPECT_TRUE(q.is_row_hit(hit));
  EXPECT_FALSE(q.is_row_hit(other_row));
  EXPECT_FALSE(q.is_row_hit(closed));
  EXPECT_EQ(q.hit_write(hit), RequestQueue::kHitBit);
}

TEST(RequestQueue, WriteBitTracksDirection) {
  RequestQueue q(2, kBanks);
  const std::uint32_t rd = q.push(req_at(1, 0, false), da(0, 0));
  const std::uint32_t wr = q.push(req_at(2, 0, true), da(0, 1));
  EXPECT_EQ(q.hit_write(rd) & RequestQueue::kWriteBit, 0);
  EXPECT_EQ(q.hit_write(wr) & RequestQueue::kWriteBit, RequestQueue::kWriteBit);
}

TEST(RequestQueue, RowChangedRederivesHitBits) {
  RequestQueue q(4, kBanks);
  std::array<std::int64_t, kBanks> open = kClosed;
  const std::uint32_t a = q.push(req(1), da(1, 17));
  const std::uint32_t b = q.push(req(2), da(1, 3));
  const std::uint32_t c = q.push(req(3), da(2, 17));
  EXPECT_FALSE(q.is_row_hit(a));

  open[1] = 17;  // ACT bank 1 row 17
  q.mark_rows_stale(1);
  q.sync_rows(open.data());
  EXPECT_TRUE(q.is_row_hit(a));
  EXPECT_FALSE(q.is_row_hit(b));
  EXPECT_FALSE(q.is_row_hit(c));  // other bank untouched

  open[1] = 3;  // conflict: bank 1 switches rows
  q.mark_rows_stale(1);
  q.sync_rows(open.data());
  EXPECT_FALSE(q.is_row_hit(a));
  EXPECT_TRUE(q.is_row_hit(b));

  open[1] = -1;  // precharge
  q.mark_rows_stale(1);
  q.sync_rows(open.data());
  EXPECT_FALSE(q.is_row_hit(a));
  EXPECT_FALSE(q.is_row_hit(b));
}

TEST(RequestQueue, ActThenPreBeforeSyncLeavesBitsExact) {
  // Closed page: ACT and PRE both land before the next sync, so the bank is
  // back at the mirrored row and nothing is re-derived - and nothing needs
  // to be, even for a slot pushed while the row was open (its bit comes
  // from the mirror, not from the open row).
  RequestQueue q(4, kBanks);
  std::array<std::int64_t, kBanks> open = kClosed;
  const std::uint32_t a = q.push(req(1), da(0, 5));
  open[0] = 5;
  q.mark_rows_stale(0);
  const std::uint32_t b = q.push(req(2), da(0, 5));
  open[0] = -1;
  q.mark_rows_stale(0);
  q.sync_rows(open.data());
  EXPECT_FALSE(q.is_row_hit(a));
  EXPECT_FALSE(q.is_row_hit(b));
}

TEST(RequestQueue, NoHitPickIsOldestInBusDirection) {
  RequestQueue q(4, kBanks);
  const std::uint32_t r0 = q.push(req_at(1, 100, false), da(0, 0));
  const std::uint32_t w0 = q.push(req_at(2, 200, true), da(1, 0));
  q.push(req_at(3, 150, true), da(2, 0));
  EXPECT_EQ(q.no_hit_pick(200, 1), w0);
  EXPECT_EQ(q.no_hit_pick(200, 0), r0);
  EXPECT_EQ(q.no_hit_pick(200, -1), r0);  // cold bus: the head
  EXPECT_EQ(q.no_hit_pick(199, 1), RequestQueue::kNil);  // w0 not arrived
  q.pop(r0);
  EXPECT_EQ(q.no_hit_pick(200, 0), w0);  // no read left: the head
}

TEST(RequestQueue, EarliestSlotTracksMinArrival) {
  RequestQueue q(4, kBanks);
  const std::uint32_t a = q.push(req_at(1, 300), da(0, 0));
  const std::uint32_t b = q.push(req_at(2, 100), da(0, 1));
  q.push(req_at(3, 200), da(0, 2));
  EXPECT_EQ(q.earliest_slot(), b);
  // Popping the cached minimum forces the lazy rescan on the next query.
  q.pop(b);
  const std::uint32_t c = q.push(req_at(4, 200), da(0, 3));
  // Tie at 200: the FIFO-older entry (pushed first) wins.
  EXPECT_NE(q.earliest_slot(), a);
  EXPECT_NE(q.earliest_slot(), c);
  EXPECT_EQ(q.entry(q.earliest_slot()).req.addr, 3u);
}

}  // namespace
}  // namespace mcm::ctrl
