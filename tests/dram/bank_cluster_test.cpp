#include "dram/bank_cluster.hpp"

#include <gtest/gtest.h>

namespace mcm::dram {
namespace {

class BankClusterTest : public ::testing::Test {
 protected:
  BankClusterTest()
      : spec_(DeviceSpec::next_gen_mobile_ddr()),
        d_(DerivedTiming::derive(spec_.timing, Frequency{400.0})),
        cluster_(spec_.org) {}

  Time cyc(int n) const { return d_.cycles(n); }

  DeviceSpec spec_;
  DerivedTiming d_;
  BankCluster cluster_;
};

TEST_F(BankClusterTest, HasFourBanks) {
  EXPECT_EQ(cluster_.bank_count(), 4u);
  EXPECT_TRUE(cluster_.all_precharged());
  for (std::uint32_t b = 0; b < cluster_.bank_count(); ++b) {
    EXPECT_FALSE(cluster_.row_open(b));
    EXPECT_EQ(cluster_.earliest_activate(b), Time::zero());
  }
}

TEST_F(BankClusterTest, CrossBankActivateRespectsTrrd) {
  cluster_.activate(Time::zero(), 0, 5, d_);
  EXPECT_EQ(cluster_.earliest_activate(1), cyc(d_.trrd));
  cluster_.activate(cyc(d_.trrd), 1, 9, d_);
  EXPECT_EQ(cluster_.earliest_activate(2), cyc(2 * d_.trrd));
}

TEST_F(BankClusterTest, SameBankGuardDominatesTrrd) {
  cluster_.activate(Time::zero(), 0, 5, d_);
  // Same bank: tRC, not tRRD.
  EXPECT_EQ(cluster_.earliest_activate(0), cyc(d_.trc));
}

TEST_F(BankClusterTest, TracksOpenRowsAcrossBanks) {
  cluster_.activate(Time::zero(), 0, 5, d_);
  cluster_.activate(cyc(d_.trrd), 2, 7, d_);
  EXPECT_TRUE(cluster_.any_row_open());
  EXPECT_FALSE(cluster_.all_precharged());
  EXPECT_TRUE(cluster_.bank(0).row_open());
  EXPECT_FALSE(cluster_.bank(1).row_open());
  EXPECT_TRUE(cluster_.bank(2).row_open());
}

TEST_F(BankClusterTest, RefreshRequiresAllPrechargedAndBlocksAllBanks) {
  cluster_.activate(Time::zero(), 0, 5, d_);
  cluster_.precharge(cluster_.earliest_precharge(0), 0, d_);
  ASSERT_TRUE(cluster_.all_precharged());
  const Time tr = cluster_.earliest_refresh();
  cluster_.refresh(tr, d_);
  for (std::uint32_t b = 0; b < cluster_.bank_count(); ++b) {
    EXPECT_EQ(cluster_.bank(b).earliest_activate(), tr + cyc(d_.trfc));
  }
}

TEST_F(BankClusterTest, ReadWriteForwardToBank) {
  cluster_.activate(Time::zero(), 1, 3, d_);
  const Time t = cluster_.earliest_cas(1);
  const Time rd_end = cluster_.read(t, 1, d_);
  EXPECT_EQ(rd_end, t + cyc(d_.cl + d_.burst_ck));
}

// The single-bank timing rules, checked on bank 0 of a cluster.
class BankTest : public BankClusterTest {};

TEST_F(BankTest, StartsClosed) {
  EXPECT_FALSE(cluster_.bank(0).row_open());
  EXPECT_EQ(cluster_.bank(0).earliest_activate(), Time::zero());
}

TEST_F(BankTest, ActivateOpensRowAndSetsGuards) {
  cluster_.activate(Time::zero(), 0, 77, d_);
  EXPECT_TRUE(cluster_.row_open(0));
  EXPECT_EQ(cluster_.open_row(0), 77u);
  EXPECT_EQ(cluster_.earliest_cas(0), cyc(d_.trcd));
  EXPECT_EQ(cluster_.earliest_precharge(0), cyc(d_.tras));
  EXPECT_EQ(cluster_.bank(0).earliest_activate(), cyc(d_.trc));
}

TEST_F(BankTest, ReadReturnsDataEnd) {
  cluster_.activate(Time::zero(), 0, 1, d_);
  const Time t = cluster_.earliest_cas(0);
  const Time end = cluster_.read(t, 0, d_);
  EXPECT_EQ(end, t + cyc(d_.cl + d_.burst_ck));
}

TEST_F(BankTest, WriteExtendsPrechargeGuardByWriteRecovery) {
  cluster_.activate(Time::zero(), 0, 1, d_);
  // Write late enough that tWR (not tRAS) bounds the next precharge.
  const Time t = cluster_.earliest_cas(0) + cyc(20);
  const Time end = cluster_.write(t, 0, d_);
  EXPECT_EQ(end, t + cyc(d_.cwl + d_.burst_ck));
  EXPECT_EQ(cluster_.earliest_precharge(0), end + cyc(d_.twr));
}

TEST_F(BankTest, ReadSetsReadToPrechargeGuard) {
  cluster_.activate(Time::zero(), 0, 1, d_);
  const Time t = cluster_.earliest_cas(0) + cyc(20);  // past the tRAS window
  (void)cluster_.read(t, 0, d_);
  EXPECT_GE(cluster_.earliest_precharge(0), t + cyc(d_.trtp));
}

TEST_F(BankTest, PrechargeClosesRowAndArmsActivate) {
  cluster_.activate(Time::zero(), 0, 1, d_);
  const Time tp = cluster_.earliest_precharge(0);
  cluster_.precharge(tp, 0, d_);
  EXPECT_FALSE(cluster_.row_open(0));
  EXPECT_TRUE(cluster_.all_precharged());
  EXPECT_GE(cluster_.bank(0).earliest_activate(), tp + cyc(d_.trp));
}

TEST_F(BankTest, SameBankActRespectsTrc) {
  cluster_.activate(Time::zero(), 0, 1, d_);
  cluster_.precharge(cluster_.earliest_precharge(0), 0, d_);
  // The next ACT waits for tRC after the first ACT as well as tRP after
  // the PRE, whichever is later.
  EXPECT_GE(cluster_.bank(0).earliest_activate(), cyc(d_.trc));
}

TEST_F(BankTest, RefreshBlocksBankForTrfc) {
  cluster_.refresh(Time::zero(), d_);
  EXPECT_EQ(cluster_.bank(0).earliest_activate(), cyc(d_.trfc));
}

#ifndef NDEBUG
TEST_F(BankClusterTest, IllegalCommandsAssert) {
  EXPECT_DEATH(cluster_.precharge(Time::zero(), 0, d_), "");  // no open row
  cluster_.activate(Time::zero(), 0, 1, d_);
  EXPECT_DEATH((void)cluster_.read(Time::zero(), 0, d_), "");  // before tRCD
  EXPECT_DEATH(cluster_.activate(cyc(d_.trc), 0, 2, d_), "");  // already open
  EXPECT_DEATH(cluster_.refresh(cyc(d_.trc), d_), "");  // a row is open
}
#endif

}  // namespace
}  // namespace mcm::dram
