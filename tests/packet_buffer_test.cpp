// Integration tests for the remote packet-buffer primitive: divert
// thresholds, FIFO-order preservation through remote DRAM, ring
// exhaustion, loss behaviour with and without the reliability extension,
// and the zero-CPU property.
#include <gtest/gtest.h>

#include "control/testbed.hpp"
#include "core/packet_buffer.hpp"
#include "host/sink.hpp"
#include "host/traffic_gen.hpp"

namespace xmem::core {
namespace {

using control::Testbed;

// Topology: h0, h1 senders; h2 receiver (the congested egress); h3 and
// h4 remote memory servers. All links 40 Gb/s, so two senders
// oversubscribe the receiver and the diverted aggregate is striped over
// two servers (one 34 Gb/s-class RNIC cannot absorb the whole flow —
// exactly why §2.1 says "one or multiple servers").
class PacketBufferTest : public ::testing::Test {
 protected:
  static Testbed::Config testbed_config() {
    Testbed::Config cfg;
    cfg.hosts = 5;
    return cfg;
  }

  PacketBufferTest() : tb_(testbed_config()) { setup_channels({}); }

  /// (Re)build both stripes' channels, their PSNs starting at
  /// `initial_psn`.
  void setup_channels(roce::Psn initial_psn) {
    channels_.clear();
    for (int server : {3, 4}) {
      channels_.push_back(tb_.controller().setup_channel(
          tb_.host(server), tb_.port_of(server),
          {.region_bytes = 8 * static_cast<std::size_t>(sim::kMiB),
           .initial_psn = initial_psn}));
    }
    channel_ = channels_.front();
  }

  PacketBufferPrimitive& make_primitive(PacketBufferPrimitive::Config cfg) {
    cfg.watch_port = tb_.port_of(2);
    primitive_ =
        std::make_unique<PacketBufferPrimitive>(tb_.tor(), channels_, cfg);
    return *primitive_;
  }

  /// Two synchronized bursts toward h2. Senders run at 30 Gb/s each:
  /// 60 Gb/s into a 40 Gb/s drain oversubscribes the egress queue, while
  /// the 20 Gb/s divert surplus stays within what one memory server's
  /// RNIC can absorb (the full 8-uplink case stripes across servers; see
  /// bench/f1a_incast).
  void run_incast(std::int64_t bytes_per_sender) {
    host::IncastCoordinator incast(
        {&tb_.host(0), &tb_.host(1)},
        {.dst_mac = tb_.host(2).mac(),
         .dst_ip = tb_.host(2).ip(),
         .frame_size = 1500,
         .burst_bytes_per_sender = bytes_per_sender,
         .sender_rate = sim::gbps(30)});
    incast.start(sim::microseconds(1));
    tb_.sim().run();
  }

  void expect_loss_affects_only_lost(roce::Psn initial_psn);
  void expect_reliable_loads_recover(roce::Psn initial_psn);
  static void expect_crossed(const PacketBufferPrimitive& pb,
                             roce::Psn initial_psn);

  Testbed tb_;
  std::vector<control::RdmaChannelConfig> channels_;
  control::RdmaChannelConfig channel_;  // first stripe (single-server tests)
  std::unique_ptr<PacketBufferPrimitive> primitive_;
};

TEST_F(PacketBufferTest, QuietTrafficNeverDiverts) {
  auto& pb = make_primitive({.divert_threshold_bytes = 100 * 1500});
  host::PacketSink sink(tb_.host(2));
  host::CbrTrafficGen gen(tb_.host(0), {.dst_mac = tb_.host(2).mac(),
                                        .dst_ip = tb_.host(2).ip(),
                                        .frame_size = 1500,
                                        .rate = sim::gbps(10),
                                        .packet_limit = 200});
  gen.start();
  tb_.sim().run();
  EXPECT_EQ(sink.packets(), 200u);
  EXPECT_EQ(pb.stats().stored, 0u);
  EXPECT_FALSE(pb.diverting());
}

TEST_F(PacketBufferTest, OversubscriptionDivertsAndDeliversEverything) {
  auto& pb = make_primitive({.divert_threshold_bytes = 40 * 1500,
                             .resume_threshold_bytes = 10 * 1500});
  host::PacketSink sink(tb_.host(2));
  run_incast(3'000'000);  // 6 MB total into a 40 Gb/s drain

  EXPECT_GT(pb.stats().stored, 0u) << "queue buildup must trigger diverts";
  EXPECT_EQ(pb.stats().stored, pb.stats().loaded);
  EXPECT_EQ(pb.stats().ring_full_drops, 0u);
  EXPECT_EQ(pb.stats().lost_loads, 0u);
  EXPECT_EQ(tb_.tor().tm().total_drops(), 0u) << "remote buffer absorbs all";
  EXPECT_EQ(sink.packets(), 4000u);  // 6 MB / 1500 B
  EXPECT_EQ(sink.missing(), 0u);
  EXPECT_FALSE(pb.diverting()) << "ring fully drained at the end";
  EXPECT_EQ(pb.ring_depth(), 0);
  // Memory server CPU untouched (Goal #2).
  EXPECT_EQ(tb_.host(3).cpu_packets(), 0u);
}

TEST_F(PacketBufferTest, BaselineWithoutPrimitiveDropsTheSameWorkload) {
  // Control experiment: a small shared buffer and no primitive.
  Testbed::Config cfg;
  cfg.hosts = 4;
  cfg.switch_config.tm.shared_buffer_bytes = 60 * 1500;
  Testbed tb(cfg);
  host::PacketSink sink(tb.host(2));
  host::IncastCoordinator incast({&tb.host(0), &tb.host(1)},
                                 {.dst_mac = tb.host(2).mac(),
                                  .dst_ip = tb.host(2).ip(),
                                  .frame_size = 1500,
                                  .burst_bytes_per_sender = 3'000'000});
  incast.start(sim::microseconds(1));
  tb.sim().run();
  EXPECT_GT(tb.tor().tm().total_drops(), 0u);
  EXPECT_LT(sink.packets(), 4000u);
}

TEST_F(PacketBufferTest, RingExhaustionDropsExcess) {
  // A deliberately tiny remote ring (64 kB = 32 slots).
  auto small = tb_.controller().setup_channel(tb_.host(3), tb_.port_of(3),
                                              {.region_bytes = 64 * 1024});
  PacketBufferPrimitive::Config cfg;
  cfg.watch_port = tb_.port_of(2);
  cfg.divert_threshold_bytes = 10 * 1500;
  cfg.resume_threshold_bytes = 2 * 1500;
  PacketBufferPrimitive pb(tb_.tor(), small, cfg);
  EXPECT_EQ(pb.ring_capacity(), 32u);

  host::PacketSink sink(tb_.host(2));
  run_incast(3'000'000);
  EXPECT_GT(pb.stats().ring_full_drops, 0u);
  EXPECT_EQ(sink.packets() + pb.stats().ring_full_drops +
                tb_.tor().tm().total_drops(),
            4000u);
}

/// Just short of the 24-bit PSN wrap: the loss tests below also run with
/// both stripes' windows crossing it.
constexpr roce::Psn kNearWrap{(1u << 24) - 300};

void PacketBufferTest::expect_loss_affects_only_lost(roce::Psn initial_psn) {
  if (initial_psn != channel_.initial_psn) setup_channels(initial_psn);
  auto& pb = make_primitive({.divert_threshold_bytes = 40 * 1500,
                             .resume_threshold_bytes = 10 * 1500});
  tb_.link_of(3).set_loss_rate(0.02, 23);  // both directions
  host::PacketSink sink(tb_.host(2));
  run_incast(1'500'000);

  // Some packets are gone (lost WRITEs or lost READ data), but the run
  // terminates and everything else arrives.
  EXPECT_GT(sink.packets(), 0u);
  EXPECT_LT(sink.packets(), 2000u);
  EXPECT_FALSE(pb.diverting());
  EXPECT_TRUE(pb.quiescent());
  const std::uint64_t lost = 2000u - sink.packets();
  EXPECT_LE(pb.stats().lost_loads, lost);
  expect_crossed(pb, initial_psn);
}

void PacketBufferTest::expect_reliable_loads_recover(roce::Psn initial_psn) {
  if (initial_psn != channel_.initial_psn) setup_channels(initial_psn);
  auto& pb = make_primitive({.divert_threshold_bytes = 40 * 1500,
                             .resume_threshold_bytes = 10 * 1500,
                             .reliable_loads = true,
                             .read_timeout = sim::microseconds(300)});
  // Drop only server->switch frames (READ responses); WRITE requests and
  // READ requests stay intact, so every packet is recoverable.
  tb_.link_of(3).set_loss_rate(0.05, 29, /*direction=*/1);
  host::PacketSink sink(tb_.host(2));
  run_incast(1'500'000);

  EXPECT_EQ(sink.packets(), 2000u);
  EXPECT_EQ(sink.missing(), 0u);
  EXPECT_GT(pb.stats().read_retries, 0u);
  EXPECT_EQ(pb.stats().lost_loads, 0u);
  EXPECT_TRUE(pb.quiescent());
  expect_crossed(pb, initial_psn);
}

void PacketBufferTest::expect_crossed(const PacketBufferPrimitive& pb,
                                      roce::Psn initial_psn) {
  if (initial_psn != kNearWrap) return;
  for (std::size_t i = 0; i < pb.stripe_width(); ++i) {
    EXPECT_LT(pb.channel(i).next_psn().raw(), initial_psn.raw())
        << "stripe " << i << " must cross the PSN wrap";
  }
}

TEST_F(PacketBufferTest, LossyMemoryLinkLosesOnlyAffectedPackets) {
  expect_loss_affects_only_lost(roce::Psn{});
}

TEST_F(PacketBufferTest, LossyMemoryLinkLosesOnlyAffectedPacketsAcrossPsnWrap) {
  expect_loss_affects_only_lost(kNearWrap);
}

TEST_F(PacketBufferTest, ReliableLoadsRecoverResponseLoss) {
  expect_reliable_loads_recover(roce::Psn{});
}

TEST_F(PacketBufferTest, ReliableLoadsRecoverResponseLossAcrossPsnWrap) {
  expect_reliable_loads_recover(kNearWrap);
}

TEST_F(PacketBufferTest, SingleSenderOrderPreservedThroughRemoteBuffer) {
  // Force diverting with a *zero* threshold so even one sender's stream
  // takes the remote path, then verify strict FIFO delivery.
  auto& pb = make_primitive({.divert_threshold_bytes = 0,
                             .resume_threshold_bytes = 10 * 1500});
  host::PacketSink sink(tb_.host(2));
  host::CbrTrafficGen gen(tb_.host(0), {.dst_mac = tb_.host(2).mac(),
                                        .dst_ip = tb_.host(2).ip(),
                                        .frame_size = 1500,
                                        .rate = sim::gbps(20),
                                        .packet_limit = 500});
  gen.start();
  tb_.sim().run();
  EXPECT_EQ(pb.stats().stored, 500u);
  EXPECT_EQ(sink.packets(), 500u);
  EXPECT_EQ(sink.reordered(), 0u) << "FIFO order through the ring";
  EXPECT_EQ(sink.missing(), 0u);
  // Every arriving packet took the remote path.
  EXPECT_EQ(pb.stats().loaded, 500u);
}

TEST_F(PacketBufferTest, StripingAcrossTwoServersPreservesOrder) {
  // Use h1 AND h3 as memory servers; only h0 sends, straight into the
  // ring (zero threshold), so order must survive the round-robin stripe.
  auto chan_a = tb_.controller().setup_channel(tb_.host(3), tb_.port_of(3),
                                               {.region_bytes = 1 << 20});
  auto chan_b = tb_.controller().setup_channel(tb_.host(1), tb_.port_of(1),
                                               {.region_bytes = 1 << 20});
  PacketBufferPrimitive::Config cfg;
  cfg.watch_port = tb_.port_of(2);
  cfg.divert_threshold_bytes = 0;
  cfg.resume_threshold_bytes = 10 * 1500;
  PacketBufferPrimitive pb(tb_.tor(), {chan_a, chan_b}, cfg);
  EXPECT_EQ(pb.stripe_width(), 2u);
  EXPECT_EQ(pb.ring_capacity(), 2 * ((1u << 20) / 2048));

  host::PacketSink sink(tb_.host(2));
  host::CbrTrafficGen gen(tb_.host(0), {.dst_mac = tb_.host(2).mac(),
                                        .dst_ip = tb_.host(2).ip(),
                                        .frame_size = 1500,
                                        .rate = sim::gbps(30),
                                        .packet_limit = 400});
  gen.start();
  tb_.sim().run();
  EXPECT_EQ(sink.packets(), 400u);
  EXPECT_EQ(sink.reordered(), 0u);
  EXPECT_EQ(sink.missing(), 0u);
  // Both stripes carried writes.
  EXPECT_EQ(pb.channel(0).stats().writes_sent, 200u);
  EXPECT_EQ(pb.channel(1).stats().writes_sent, 200u);
}

TEST_F(PacketBufferTest, LoadGatingSeparatesStoreAndLoadPhases) {
  auto& pb = make_primitive({.divert_threshold_bytes = 0,
                             .resume_threshold_bytes = 20 * 1500,
                             .load_enabled = false});
  host::PacketSink sink(tb_.host(2));
  host::CbrTrafficGen gen(tb_.host(0), {.dst_mac = tb_.host(2).mac(),
                                        .dst_ip = tb_.host(2).ip(),
                                        .frame_size = 1500,
                                        .rate = sim::gbps(20),
                                        .packet_limit = 100});
  gen.start();
  tb_.sim().run();
  EXPECT_EQ(pb.stats().stored, 100u);
  EXPECT_EQ(pb.stats().loaded, 0u) << "load path gated";
  EXPECT_EQ(sink.packets(), 0u);

  pb.set_load_enabled(true);
  tb_.sim().run();
  EXPECT_EQ(pb.stats().loaded, 100u);
  EXPECT_EQ(sink.packets(), 100u);
  EXPECT_EQ(sink.reordered(), 0u);
}

TEST_F(PacketBufferTest, MaxRingDepthTracksBacklog) {
  auto& pb = make_primitive({.divert_threshold_bytes = 20 * 1500,
                             .resume_threshold_bytes = 5 * 1500});
  run_incast(1'500'000);
  EXPECT_GT(pb.stats().max_ring_depth, 10);
  EXPECT_LE(pb.stats().max_ring_depth,
            static_cast<std::int64_t>(pb.ring_capacity()));
}

}  // namespace
}  // namespace xmem::core
