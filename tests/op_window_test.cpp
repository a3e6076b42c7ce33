// Unit tests for core::OpWindow and core::RecoveryClock, the in-flight
// machinery under the three primitives: issue-order walks across the
// 24-bit PSN wrap, lookup over sparse PSNs, tombstones that pop only at
// the front, both halves of Karn's rule, drain order, walks that stay
// valid while their callback reclaims or posts ops, per-op age expiry,
// and the single timer at the earliest shard deadline.
#include "core/op_window.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace xmem::core {
namespace {

using roce::Psn;

constexpr std::uint32_t kWrapBase = (1u << 24) - 3;

class OpWindowTest : public ::testing::Test {
 protected:
  static AdaptiveRtoConfig adaptive() {
    AdaptiveRtoConfig cfg;
    cfg.enabled = true;
    cfg.jitter_fraction = 0.0;
    return cfg;
  }

  std::vector<std::uint32_t> walk(OpWindow<int>& window, std::size_t shard) {
    std::vector<std::uint32_t> psns;
    window.for_each(shard, [&](auto& op) { psns.push_back(op.psn.raw()); });
    return psns;
  }

  sim::Simulator sim_;
  int fired_ = 0;
  RecoveryClock clock_{sim_, 2, adaptive(), sim::microseconds(100),
                       [this]() { ++fired_; }};
  OpWindow<int> window_{clock_};
};

TEST_F(OpWindowTest, WalksInIssueOrderAcrossThePsnWrap) {
  for (std::uint32_t i = 0; i < 6; ++i) {
    window_.add(0, roce::psn_add(Psn(kWrapBase), i), static_cast<int>(i));
  }
  EXPECT_EQ(walk(window_, 0),
            (std::vector<std::uint32_t>{kWrapBase, kWrapBase + 1,
                                        kWrapBase + 2, 0, 1, 2}));
  ASSERT_NE(window_.find(0, Psn(1)), nullptr);
  EXPECT_EQ(window_.find(0, Psn(1))->payload, 4);
  EXPECT_EQ(window_.front(0)->psn, Psn(kWrapBase));
  EXPECT_EQ(window_.newest(0), Psn(2));
  EXPECT_EQ(window_.size(0), 6u);
  EXPECT_EQ(window_.size(1), 0u);
  EXPECT_EQ(window_.newest(1), std::nullopt);
}

TEST_F(OpWindowTest, FindsSparsePsnsAndNothingInTheGaps) {
  const std::vector<std::uint32_t> psns{10, 13, 20, 21, 40};
  for (const std::uint32_t p : psns) {
    window_.add(1, Psn(p), static_cast<int>(p));
  }
  for (const std::uint32_t p : psns) {
    ASSERT_NE(window_.find(1, Psn(p)), nullptr) << p;
    EXPECT_EQ(window_.find(1, Psn(p))->payload, static_cast<int>(p));
  }
  for (const std::uint32_t gap : {9u, 11u, 12u, 19u, 22u, 39u, 41u}) {
    EXPECT_EQ(window_.find(1, Psn(gap)), nullptr) << gap;
  }
  EXPECT_EQ(window_.find(0, Psn(10)), nullptr) << "PSN spaces are per shard";
  EXPECT_FALSE(window_.complete(1, Psn(11))) << "a stale PSN completes nothing";
}

TEST_F(OpWindowTest, TombstonesPopOnlyAtTheFront) {
  for (std::uint32_t p = 100; p < 104; ++p) {
    window_.add(0, Psn(p), static_cast<int>(p));
  }
  auto middle = window_.complete(0, Psn(102));
  ASSERT_TRUE(middle);
  EXPECT_EQ(middle->payload, 102);
  EXPECT_EQ(window_.size(0), 3u);
  EXPECT_EQ(window_.front(0)->psn, Psn(100)) << "the front stays put";
  EXPECT_EQ(window_.find(0, Psn(102)), nullptr);
  EXPECT_FALSE(window_.complete(0, Psn(102))) << "a duplicate finds nothing";
  EXPECT_EQ(walk(window_, 0), (std::vector<std::uint32_t>{100, 101, 103}));

  ASSERT_TRUE(window_.remove(0, Psn(100)));
  EXPECT_EQ(window_.front(0)->psn, Psn(101));
  ASSERT_TRUE(window_.complete(0, Psn(101)));
  EXPECT_EQ(window_.front(0)->psn, Psn(103)) << "tombstone 102 popped too";
  EXPECT_EQ(window_.newest(0), Psn(103));

  ASSERT_TRUE(window_.complete(0, Psn(103)));
  EXPECT_EQ(window_.front(0), nullptr);
  EXPECT_EQ(window_.newest(0), std::nullopt);
  EXPECT_TRUE(window_.empty());
}

TEST_F(OpWindowTest, KarnRetransmittedOpNeitherSamplesNorResetsBackoff) {
  window_.add(0, Psn(1), 0);
  sim_.run_until(sim::microseconds(40));
  ASSERT_TRUE(window_.complete(0, Psn(1)));
  ASSERT_TRUE(clock_.rto(0).has_samples());
  EXPECT_EQ(clock_.rto(0).srtt(), sim::microseconds(40));
  const sim::Time clean = clock_.rto(0).rto();

  clock_.rto(0).note_timeout();
  window_.add(0, Psn(2), 0).retransmitted = true;
  sim_.run_until(sim::microseconds(1000));
  ASSERT_TRUE(window_.complete(0, Psn(2)));
  EXPECT_EQ(clock_.rto(0).srtt(), sim::microseconds(40)) << "no RTT sample";
  EXPECT_EQ(clock_.rto(0).backoff(), 1u) << "no backoff reset";
  EXPECT_EQ(clock_.rto(0).rto(), clean * 2);

  window_.add(0, Psn(3), 0);
  sim_.run_until(sim::microseconds(1040));
  ASSERT_TRUE(window_.remove(0, Psn(3)));
  EXPECT_EQ(clock_.rto(0).backoff(), 1u) << "a removed op is no sample";

  window_.add(0, Psn(4), 0);
  sim_.run_until(sim::microseconds(1080));
  ASSERT_TRUE(window_.complete(0, Psn(4)));
  EXPECT_EQ(clock_.rto(0).backoff(), 0u) << "a clean sample ends the episode";
}

TEST_F(OpWindowTest, DrainHandsOverInIssueOrderAndKeepsWhatItsCallbackPosts) {
  for (std::uint32_t i = 0; i < 5; ++i) {
    window_.add(0, roce::psn_add(Psn(kWrapBase), i), static_cast<int>(i));
  }
  ASSERT_TRUE(window_.complete(0, roce::psn_add(Psn(kWrapBase), 2)));
  window_.add(1, Psn(7), 70);

  std::vector<int> drained;
  window_.drain(0, [&](auto&& op) {
    drained.push_back(op.payload);
    if (op.payload == 0) window_.add(0, Psn(50), 99);  // posted mid-drain
  });
  EXPECT_EQ(drained, (std::vector<int>{0, 1, 3, 4}));
  EXPECT_EQ(window_.size(0), 1u);
  EXPECT_EQ(window_.front(0)->payload, 99);
  EXPECT_EQ(window_.size(1), 1u) << "other shards are untouched";
  EXPECT_EQ(window_.size(), 2u);
}

TEST_F(OpWindowTest, WalkSurvivesReclaimAndSkipsOpsPostedDuringIt) {
  for (std::uint32_t p = 1; p <= 6; ++p) {
    window_.add(0, Psn(p), static_cast<int>(p));
  }
  std::vector<std::uint32_t> seen;
  window_.for_each(0, [&](auto& op) {
    const Psn psn = op.psn;
    seen.push_back(psn.raw());
    if (psn == Psn(1)) {
      (void)window_.remove(0, psn);          // the visited op itself
      (void)window_.remove(0, Psn(3));       // and a later one
      window_.add(0, Psn(9), 9);             // posted during the walk
    }
    if (psn == Psn(4)) {
      window_.drain(0, [](auto&&) {});       // a down transition
      window_.add(0, Psn(10), 10);
    }
  });
  EXPECT_EQ(seen, (std::vector<std::uint32_t>{1, 2, 4}));
  EXPECT_EQ(walk(window_, 0), (std::vector<std::uint32_t>{10}));

  // An explicit bound taken before the ops were posted.
  const auto bound = window_.newest(0);
  window_.add(0, Psn(11), 11);
  seen.clear();
  window_.for_each_through(0, bound,
                           [&](auto& op) { seen.push_back(op.psn.raw()); });
  EXPECT_EQ(seen, (std::vector<std::uint32_t>{10}));
  window_.for_each_through(1, window_.newest(1),
                           [&](auto&) { ADD_FAILURE() << "shard 1 is empty"; });
}

TEST_F(OpWindowTest, ExpireRemovesOnlyOldOpsAndBacksOffOnce) {
  clock_.rto(0).sample(sim::microseconds(100));  // RTO = 300 us
  window_.add(0, Psn(1), 1);
  window_.add(0, Psn(2), 2);
  sim_.run_until(sim::microseconds(200));
  window_.add(0, Psn(3), 3);
  sim_.run_until(sim::microseconds(350));

  std::vector<int> lost;
  window_.expire(0, [&](auto&& op) { lost.push_back(op.payload); });
  EXPECT_EQ(lost, (std::vector<int>{1, 2}));
  EXPECT_EQ(walk(window_, 0), (std::vector<std::uint32_t>{3}));
  EXPECT_EQ(clock_.rto(0).backoff(), 1u) << "one step, however many expired";

  window_.expire(1, [&](auto&&) { ADD_FAILURE(); });
  EXPECT_EQ(clock_.rto(1).backoff(), 0u) << "nothing expired, no backoff";
}

TEST_F(OpWindowTest, ClockFiresOnceAtTheEarliestShardDeadline) {
  clock_.rto(1).sample(sim::microseconds(100));  // shard 1: 300 us
  EXPECT_EQ(clock_.timeout(0), adaptive().initial_rto);
  EXPECT_EQ(clock_.min_timeout(), sim::microseconds(300));
  clock_.arm();
  clock_.arm();  // already pending: no second timer
  sim_.run_until(sim::microseconds(299));
  EXPECT_EQ(fired_, 0);
  sim_.run_until(sim::microseconds(300));
  EXPECT_EQ(fired_, 1);
  sim_.run_until(sim::milliseconds(10));
  EXPECT_EQ(fired_, 1);

  RecoveryClock fixed(sim_, 2, AdaptiveRtoConfig{}, sim::microseconds(100),
                      [] {});
  fixed.rto(0).sample(sim::microseconds(5));
  EXPECT_EQ(fixed.timeout(0), sim::microseconds(100))
      << "adaptive RTO off: the fixed timeout, whatever was sampled";
  EXPECT_EQ(fixed.min_timeout(), sim::microseconds(100));
}

}  // namespace
}  // namespace xmem::core
