// Allocation budget of the RoCE frame path. A counting global operator
// new measures what one packet diverted through the remote packet buffer
// costs the allocator, net of the tenant traffic itself: the same
// two-sender incast runs once with diversion and once with a threshold
// it never reaches, and the difference is divided by the packets stored.
//
// A diverted 1500 B packet is one WRITE frame out and one READ response
// back, both over 1 KiB, plus a small READ request. Each frame is built
// in one allocation; the payloads and the reinjected packet are slices
// of those frames, not copies.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <vector>

#include "control/testbed.hpp"
#include "core/packet_buffer.hpp"
#include "host/sink.hpp"
#include "host/traffic_gen.hpp"

namespace {

struct AllocCounts {
  std::atomic<std::uint64_t> total{0};
  std::atomic<std::uint64_t> large{0};  ///< Requests of at least 1 KiB.
  std::atomic<std::size_t> largest{0};
};

AllocCounts& counts() {
  static AllocCounts c;
  return c;
}

void* counted_alloc(std::size_t n) {
  AllocCounts& c = counts();
  c.total.fetch_add(1, std::memory_order_relaxed);
  if (n >= 1024) c.large.fetch_add(1, std::memory_order_relaxed);
  std::size_t seen = c.largest.load(std::memory_order_relaxed);
  while (n > seen && !c.largest.compare_exchange_weak(
                         seen, n, std::memory_order_relaxed)) {
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace xmem {
namespace {

struct Snapshot {
  std::uint64_t total = 0;
  std::uint64_t large = 0;
};

Snapshot snapshot() {
  return {counts().total.load(), counts().large.load()};
}

struct IncastRun {
  Snapshot allocs;
  std::uint64_t stored = 0;
  std::uint64_t delivered = 0;
};

/// Two 30 Gb/s senders into one 40 Gb/s port guarded by a packet buffer
/// striped over two memory servers (the packet_buffer_test topology).
IncastRun run_incast(std::int64_t divert_threshold_bytes) {
  control::Testbed::Config cfg;
  cfg.hosts = 5;
  control::Testbed tb(cfg);
  std::vector<control::RdmaChannelConfig> channels;
  for (int server : {3, 4}) {
    channels.push_back(tb.controller().setup_channel(
        tb.host(server), tb.port_of(server),
        {.region_bytes = 8 * static_cast<std::size_t>(sim::kMiB)}));
  }
  core::PacketBufferPrimitive pb(
      tb.tor(), channels,
      {.watch_port = tb.port_of(2),
       .divert_threshold_bytes = divert_threshold_bytes,
       .resume_threshold_bytes = 10 * 1500});
  host::PacketSink sink(tb.host(2));
  host::IncastCoordinator incast({&tb.host(0), &tb.host(1)},
                                 {.dst_mac = tb.host(2).mac(),
                                  .dst_ip = tb.host(2).ip(),
                                  .frame_size = 1500,
                                  .burst_bytes_per_sender = 1'500'000,
                                  .sender_rate = sim::gbps(30)});
  incast.start(sim::microseconds(1));

  const Snapshot before = snapshot();
  tb.sim().run();
  const Snapshot after = snapshot();
  return {{after.total - before.total, after.large - before.large},
          pb.stats().stored,
          sink.packets()};
}

TEST(FrameAllocations, DivertedPacketStaysWithinBudget) {
  const IncastRun diverted = run_incast(40 * 1500);
  const IncastRun direct = run_incast(std::int64_t{1} << 40);
  ASSERT_EQ(direct.stored, 0u);
  ASSERT_GT(diverted.stored, 500u);
  // Same tenant traffic delivered either way: the difference is the
  // diversion alone.
  ASSERT_EQ(diverted.delivered, 2000u);
  ASSERT_EQ(direct.delivered, 2000u);

  const auto per_packet = [&](std::uint64_t with, std::uint64_t without) {
    return (static_cast<double>(with) - static_cast<double>(without)) /
           static_cast<double>(diverted.stored);
  };
  const double large =
      per_packet(diverted.allocs.large, direct.allocs.large);
  const double total =
      per_packet(diverted.allocs.total, direct.allocs.total);
  std::printf("per diverted packet: %.2f allocations >= 1 KiB, %.2f total\n",
              large, total);
  // One WRITE frame and one READ response frame.
  EXPECT_LE(large, 2.0);
  EXPECT_LE(total, 11.0);
}

TEST(FrameAllocations, DetachingASliceCopiesOnlyTheSlice) {
  const net::Packet frame(std::vector<std::uint8_t>(1500, 0x5a));
  net::Packet inner = frame.slice(100, 64);
  counts().largest.store(0);
  inner.mutable_bytes()[0] = 0x11;
  EXPECT_LT(counts().largest.load(), std::size_t{1024});
  EXPECT_EQ(inner.size(), 64u);
  EXPECT_EQ(frame.bytes()[100], 0x5a);
}

}  // namespace
}  // namespace xmem
