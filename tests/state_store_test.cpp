// Integration tests for the remote state-store primitive: exact
// counting, the outstanding-atomics window with local accumulation,
// update combining (§7), and loss behaviour with and without the
// reliability extension (§7).
#include <gtest/gtest.h>

#include "control/testbed.hpp"
#include "core/state_store.hpp"
#include "host/sink.hpp"
#include "host/traffic_gen.hpp"
#include "net/flow.hpp"
#include "roce/packet.hpp"

namespace xmem::core {
namespace {

using control::ChannelController;
using control::Testbed;

class StateStoreTest : public ::testing::Test {
 protected:
  StateStoreTest() : tb_() {
    // h0 -> h1 traffic; h2 holds the remote counters.
  }

  control::RdmaChannelConfig make_channel(bool strict = false,
                                         roce::Psn initial_psn = {}) {
    control::ChannelController::ChannelSpec spec;
    spec.region_bytes = 4096;  // 512 counters
    spec.initial_psn = initial_psn;
    spec.tolerate_psn_gaps = !strict;
    return tb_.controller().setup_channel(tb_.host(2), tb_.port_of(2), spec);
  }

  /// Sampler pinning every UDP data packet to one counter index.
  static StateStorePrimitive::SampleFn fixed_index(std::uint64_t idx) {
    return [idx](const net::Packet& p) -> std::optional<std::uint64_t> {
      auto tuple = net::extract_five_tuple(p);
      if (!tuple || tuple->dst_port == net::kRoceV2Port) return std::nullopt;
      return idx;
    };
  }

  std::uint64_t counter(const control::RdmaChannelConfig& channel,
                        std::uint64_t idx) {
    auto region = ChannelController::region_bytes(tb_.host(2), channel);
    return rnic::load_le64(region.subspan(idx * 8, 8));
  }

  void send_packets(std::uint64_t count, sim::Bandwidth rate = sim::gbps(10),
                    std::uint16_t src_port = 7000) {
    host::CbrTrafficGen gen(tb_.host(0), {.dst_mac = tb_.host(1).mac(),
                                          .dst_ip = tb_.host(1).ip(),
                                          .src_port = src_port,
                                          .dst_port = 9000,
                                          .frame_size = 128,
                                          .rate = rate,
                                          .packet_limit = count});
    gen.start();
    tb_.sim().run();
  }

  void settle(StateStorePrimitive& ss) {
    // Flush residual accumulators and let in-flight atomics finish.
    for (int i = 0; i < 50 && !ss.quiescent(); ++i) {
      ss.flush();
      tb_.sim().run_until(tb_.sim().now() + sim::milliseconds(1));
      tb_.sim().run();
    }
  }

  /// The reliable store on one strict-RC shard with adaptive RTO, 128 B
  /// frames at 10 Gb/s, and Gilbert-Elliott loss on the memory link
  /// (0.9 inside bursts of 20 frames on average, 1% overall) for 15 ms;
  /// then clean links and flushes until quiescent. Long bursts mark the
  /// shard down, and a probe READ lost meanwhile leaves a PSN hole that
  /// the responder NAKs with the same (PSN, MSN) for every later op.
  void expect_exact_after_burst_loss(std::uint64_t seed) {
    auto channel = make_channel(/*strict=*/true);
    StateStorePrimitive ss(tb_.tor(), channel,
                           {.sample_fn = fixed_index(11),
                            .reliable = true,
                            .adaptive_rto = {.enabled = true}});
    topo::GilbertElliott ge;
    ge.loss_bad = 0.9;
    ge.exit_bad = 1.0 / 20;
    const double pi_bad = 0.01 / ge.loss_bad;
    ge.enter_bad = ge.exit_bad * pi_bad / (1.0 - pi_bad);
    tb_.link_of(2).set_fault_profile({.burst = ge}, seed);

    host::CbrTrafficGen gen(tb_.host(0), {.dst_mac = tb_.host(1).mac(),
                                          .dst_ip = tb_.host(1).ip(),
                                          .src_port = 7000,
                                          .dst_port = 9000,
                                          .frame_size = 128,
                                          .rate = sim::gbps(10)});
    gen.start();
    tb_.sim().run_until(sim::milliseconds(15));
    gen.stop();
    tb_.link_of(2).set_fault_profile({});
    // Bounded steps, not run(): a wedged shard is probed forever.
    for (int i = 0; i < 200 && !ss.quiescent(); ++i) {
      ss.flush();
      tb_.sim().run_until(tb_.sim().now() + sim::milliseconds(1));
    }
    EXPECT_GT(ss.stats().naks_received, 0u);
    EXPECT_EQ(counter(channel, 11), ss.stats().sampled_packets)
        << "exactly-once, seed " << seed;
    EXPECT_TRUE(ss.quiescent()) << "seed " << seed;
    EXPECT_TRUE(ss.channels().is_up(0)) << "seed " << seed;
  }

  void expect_loss_undercounts(roce::Psn initial_psn);
  void expect_reliability_exact(roce::Psn initial_psn);

  Testbed tb_;
};

TEST_F(StateStoreTest, CountsEveryPacketExactly) {
  auto channel = make_channel();
  StateStorePrimitive ss(tb_.tor(), channel,
                         {.sample_fn = fixed_index(5)});
  host::PacketSink sink(tb_.host(1));
  send_packets(500);
  settle(ss);

  EXPECT_EQ(ss.stats().sampled_packets, 500u);
  EXPECT_EQ(counter(channel, 5), 500u) << "100% accurate, like the paper";
  EXPECT_TRUE(ss.quiescent());
  EXPECT_EQ(sink.packets(), 500u) << "counting must not disturb traffic";
  EXPECT_EQ(tb_.host(2).cpu_packets(), 0u);
}

TEST_F(StateStoreTest, OutstandingWindowEnforcedWithAccumulation) {
  auto channel = make_channel();
  StateStorePrimitive ss(tb_.tor(), channel,
                         {.max_outstanding = 4, .sample_fn = fixed_index(0)});
  // 40 Gb/s of 128 B frames: far faster than 4-deep atomics can drain.
  send_packets(2000, sim::gbps(40));
  settle(ss);

  EXPECT_LE(ss.stats().max_outstanding_seen, 4u);
  EXPECT_GT(ss.stats().accumulated, 0u)
      << "backpressure must fold counts into the accumulator";
  EXPECT_LT(ss.stats().fetch_adds_sent, 2000u)
      << "accumulated flushes carry more than one count";
  EXPECT_EQ(counter(channel, 0), 2000u) << "still exact";
}

TEST_F(StateStoreTest, DistinctFlowsHitDistinctCounters) {
  auto channel = make_channel();
  StateStorePrimitive ss(tb_.tor(), channel, {});  // default 5-tuple hash
  send_packets(100, sim::gbps(5), /*src_port=*/7000);
  send_packets(60, sim::gbps(5), /*src_port=*/7001);
  settle(ss);

  // Locate each flow's counter the way the data plane does.
  auto region = ChannelController::region_bytes(tb_.host(2), channel);
  std::uint64_t total = 0;
  std::uint64_t nonzero = 0;
  for (std::size_t i = 0; i + 8 <= region.size(); i += 8) {
    const std::uint64_t v = rnic::load_le64(region.subspan(i, 8));
    total += v;
    nonzero += v != 0;
  }
  EXPECT_EQ(total, 160u);
  EXPECT_EQ(nonzero, 2u) << "two flows, two counters";
}

TEST_F(StateStoreTest, CombiningWindowBatchesUpdates) {
  auto channel = make_channel();
  StateStorePrimitive ss(tb_.tor(), channel,
                         {.combining_window = 10, .sample_fn = fixed_index(3)});
  send_packets(500, sim::gbps(10));
  settle(ss);

  EXPECT_EQ(counter(channel, 3), 500u);
  // 500 counts in batches of >= 10 -> at most 50 ops (plus a flush tail).
  EXPECT_LE(ss.stats().fetch_adds_sent, 51u);
  EXPECT_GT(ss.stats().accumulated, 0u);
}

TEST_F(StateStoreTest, CombiningDefaultIsPerPacket) {
  auto channel = make_channel();
  StateStorePrimitive ss(tb_.tor(), channel,
                         {.sample_fn = fixed_index(3)});
  // Slow traffic: the window never fills, every packet issues one F&A.
  send_packets(50, sim::mbps(100));
  settle(ss);
  EXPECT_EQ(ss.stats().fetch_adds_sent, 50u);
  EXPECT_EQ(counter(channel, 3), 50u);
}

/// Just short of the 24-bit PSN wrap: the loss tests below also run with
/// their window crossing it. Accumulation under backpressure folds their
/// 1000 counts into 76-154 F&As, so the start sits 40 PSNs short.
constexpr roce::Psn kNearWrap{(1u << 24) - 40};

void StateStoreTest::expect_loss_undercounts(roce::Psn initial_psn) {
  auto channel = make_channel(/*strict=*/false, initial_psn);
  StateStorePrimitive ss(tb_.tor(), channel,
                         {.sample_fn = fixed_index(7),
                          .retransmit_timeout = sim::microseconds(200)});
  tb_.link_of(2).set_loss_rate(0.05, 31);  // lossy memory link
  send_packets(1000, sim::gbps(10));
  settle(ss);

  const std::uint64_t counted = counter(channel, 7);
  EXPECT_LT(counted, 1000u) << "drops must cost accuracy (§7)";
  EXPECT_GT(counted, 800u);
  EXPECT_GT(ss.stats().counts_in_flight_lost, 0u);
  EXPECT_EQ(ss.outstanding(), 0) << "expiry reclaims every lost slot";
  if (initial_psn == kNearWrap) {
    EXPECT_LT(ss.channel().next_psn().raw(), initial_psn.raw())
        << "the run must cross the PSN wrap";
  }
}

void StateStoreTest::expect_reliability_exact(roce::Psn initial_psn) {
  auto channel = make_channel(/*strict=*/true, initial_psn);
  StateStorePrimitive ss(tb_.tor(), channel,
                         {.sample_fn = fixed_index(9),
                          .reliable = true,
                          .retransmit_timeout = sim::microseconds(200)});
  tb_.link_of(2).set_loss_rate(0.05, 37);
  send_packets(1000, sim::gbps(10));
  settle(ss);

  EXPECT_EQ(counter(channel, 9), 1000u)
      << "NAK-driven go-back-N + replay cache give exactly-once counts";
  EXPECT_GT(ss.stats().retransmits, 0u);
  EXPECT_TRUE(ss.quiescent());
  if (initial_psn == kNearWrap) {
    EXPECT_LT(ss.channel().next_psn().raw(), initial_psn.raw())
        << "the run must cross the PSN wrap";
  }
}

TEST_F(StateStoreTest, LossWithoutReliabilityUndercounts) {
  expect_loss_undercounts(roce::Psn{});
}

TEST_F(StateStoreTest, LossWithoutReliabilityUndercountsAcrossPsnWrap) {
  expect_loss_undercounts(kNearWrap);
}

TEST_F(StateStoreTest, ReliabilityRestoresExactnessUnderLoss) {
  expect_reliability_exact(roce::Psn{});
}

TEST_F(StateStoreTest, ReliabilityRestoresExactnessAcrossPsnWrap) {
  expect_reliability_exact(kNearWrap);
}

TEST_F(StateStoreTest, RoceResponsesAreNotSampled) {
  // The sampler must never see the primitive's own RDMA traffic — that
  // would be a feedback loop.
  auto channel = make_channel();
  std::uint64_t sampler_calls = 0;
  StateStorePrimitive ss(
      tb_.tor(), channel,
      {.sample_fn = [&](const net::Packet& p) -> std::optional<std::uint64_t> {
        ++sampler_calls;
        auto tuple = net::extract_five_tuple(p);
        if (!tuple || tuple->dst_port == net::kRoceV2Port) return std::nullopt;
        return 0;
      }});
  send_packets(100, sim::gbps(10));
  settle(ss);
  // One sampler call per data packet; the atomic ACKs were consumed by
  // the primitive's response demux before sampling.
  EXPECT_EQ(sampler_calls, 100u);
  EXPECT_EQ(counter(channel, 0), 100u);
}

TEST_F(StateStoreTest, FlushIsIdempotent) {
  auto channel = make_channel();
  StateStorePrimitive ss(tb_.tor(), channel, {.sample_fn = fixed_index(1)});
  send_packets(10, sim::gbps(1));
  settle(ss);
  const std::uint64_t before = counter(channel, 1);
  ss.flush();
  tb_.sim().run();
  EXPECT_EQ(counter(channel, 1), before);
  EXPECT_EQ(before, 10u);
}

TEST_F(StateStoreTest, BurstLossHoleIsFilledAndTheShardRecovers) {
  // Seed 4 left a probe-PSN hole whose first NAK fell inside the go-back
  // rate limit: the filler READ was never sent, every later NAK was a
  // duplicate, and the shard stayed down holding 16 F&As.
  expect_exact_after_burst_loss(4);
}

TEST_F(StateStoreTest, LostHoleFillerIsResentByTheTimeoutRound) {
  auto channel = make_channel(/*strict=*/true);
  StateStorePrimitive ss(tb_.tor(), channel,
                         {.sample_fn = fixed_index(13), .reliable = true});
  // Every switch -> server frame lost (the loss rate proper stops short
  // of 1; a chain that never leaves a 100%-loss state does not).
  const topo::LinkFaultProfile blackout{.burst = topo::GilbertElliott{
                                            .loss_good = 1.0}};
  // A READ nobody tracks, lost on the way: its PSN is a hole.
  tb_.link_of(2).set_fault_profile(blackout, 1, /*direction=*/0);
  (void)ss.channels().at(0).post_read(channel.base_va, 8);
  tb_.sim().run_until(sim::microseconds(10));
  tb_.link_of(2).set_fault_profile({});

  // The hole's first NAK is answered with a filler READ: lose that too,
  // with everything else the switch sends for 20 us. Every NAK after it
  // repeats the same (PSN, MSN) and is dropped as a duplicate, so only a
  // timeout round can fill the hole again.
  bool armed = true;
  tb_.link_of(2).set_tap([&](const net::Packet& frame, sim::Time, int from) {
    if (!armed || from != 1) return;
    const auto msg = roce::parse_roce_packet(frame);
    if (!msg || !msg->aeth || !msg->aeth->is_nak()) return;
    armed = false;
    tb_.sim().schedule_in(0, [&]() {
      tb_.link_of(2).set_fault_profile(blackout, 1, /*direction=*/0);
    });
    tb_.sim().schedule_in(sim::microseconds(20),
                          [&]() { tb_.link_of(2).set_fault_profile({}); });
  });
  host::CbrTrafficGen gen(tb_.host(0), {.dst_mac = tb_.host(1).mac(),
                                        .dst_ip = tb_.host(1).ip(),
                                        .src_port = 7000,
                                        .dst_port = 9000,
                                        .frame_size = 128,
                                        .rate = sim::gbps(1),
                                        .packet_limit = 300});
  gen.start();
  tb_.sim().run_until(sim::milliseconds(1));
  // Bounded steps, not run(): a wedged shard is probed forever.
  for (int i = 0; i < 50 && !ss.quiescent(); ++i) {
    ss.flush();
    tb_.sim().run_until(tb_.sim().now() + sim::milliseconds(1));
  }
  EXPECT_FALSE(armed) << "the hole must draw a NAK";
  EXPECT_EQ(counter(channel, 13), 300u);
  EXPECT_TRUE(ss.quiescent());
  EXPECT_TRUE(ss.channels().is_up(0));
}

}  // namespace
}  // namespace xmem::core
