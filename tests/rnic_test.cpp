// RNIC model tests: memory registration/checks, the RoCE responder state
// machine (writes, segmented reads, atomics, ACK/NAK, duplicates, PSN
// gaps), the rate model and RX-queue overflow drops.
#include <gtest/gtest.h>

#include <vector>

#include "rnic/memory.hpp"
#include "rnic/rnic.hpp"
#include "roce/packet.hpp"
#include "sim/simulator.hpp"

namespace xmem::rnic {
namespace {

using roce::AckSyndrome;
using roce::Opcode;
using roce::RoceMessage;

TEST(MemoryManager, RegisterAssignsDisjointRegions) {
  MemoryManager mm;
  auto& a = mm.register_region(1024, Access::kAll);
  auto& b = mm.register_region(2048, Access::kAll);
  EXPECT_NE(a.rkey(), b.rkey());
  EXPECT_NE(a.base_va(), b.base_va());
  EXPECT_EQ(a.length(), 1024u);
  EXPECT_EQ(mm.region_count(), 2u);
  EXPECT_EQ(mm.total_registered_bytes(), 3072u);
  // Regions never overlap.
  EXPECT_TRUE(b.base_va() >= a.base_va() + a.length() ||
              a.base_va() >= b.base_va() + b.length());
}

TEST(MemoryManager, ChecksCatchEveryViolation) {
  MemoryManager mm;
  auto& r = mm.register_region(100, Access::kRemoteWrite);
  EXPECT_EQ(mm.check(r.rkey(), r.base_va(), 100, Access::kRemoteWrite),
            MemStatus::kOk);
  EXPECT_EQ(mm.check(r.rkey() + 999, r.base_va(), 1, Access::kRemoteWrite),
            MemStatus::kBadRkey);
  EXPECT_EQ(mm.check(r.rkey(), r.base_va() + 90, 20, Access::kRemoteWrite),
            MemStatus::kOutOfBounds);
  EXPECT_EQ(mm.check(r.rkey(), r.base_va() - 1, 1, Access::kRemoteWrite),
            MemStatus::kOutOfBounds);
  EXPECT_EQ(mm.check(r.rkey(), r.base_va(), 8, Access::kRemoteRead),
            MemStatus::kAccessDenied);
}

TEST(MemoryManager, AtomicAlignmentEnforced) {
  MemoryManager mm;
  auto& r = mm.register_region(64, Access::kAll);
  EXPECT_EQ(mm.check(r.rkey(), r.base_va(), 8, Access::kRemoteAtomic),
            MemStatus::kOk);
  EXPECT_EQ(mm.check(r.rkey(), r.base_va() + 4, 8, Access::kRemoteAtomic),
            MemStatus::kMisaligned);
}

TEST(MemoryManager, Le64RoundTrip) {
  std::vector<std::uint8_t> buf(8);
  store_le64(buf, 0x0102030405060708ULL);
  EXPECT_EQ(buf[0], 0x08);  // little-endian
  EXPECT_EQ(buf[7], 0x01);
  EXPECT_EQ(load_le64(buf), 0x0102030405060708ULL);
}

// ---------------------------------------------------------------------
// Responder fixture: an RNIC whose transmissions are captured.
class ResponderTest : public ::testing::Test {
 protected:
  ResponderTest() {
    nic_ = std::make_unique<Rnic>(
        sim_, nic_ep_, profile_,
        [this](net::Packet&& p) { out_.push_back(std::move(p)); });
    mr_ = &nic_->memory().register_region(64 * 1024, Access::kAll);
    qp_ = &nic_->create_qp();
    nic_->connect_qp(qp_->qpn, peer_ep_, kPeerQpn,
                     /*expected_psn=*/roce::Psn(0));
  }

  void deliver(RoceMessage msg) {
    ASSERT_TRUE(nic_->handle_frame(
        roce::build_roce_packet(peer_ep_, nic_ep_, std::move(msg))));
    sim_.run();
  }

  std::vector<RoceMessage> responses() {
    std::vector<RoceMessage> msgs;
    for (const auto& p : out_) {
      auto m = roce::parse_roce_packet(p);
      if (m) msgs.push_back(std::move(*m));
    }
    return msgs;
  }

  RoceMessage write_only(std::uint32_t psn, std::uint64_t va,
                         std::vector<std::uint8_t> payload,
                         bool ack_req = false) {
    RoceMessage m;
    m.bth.opcode = Opcode::kRdmaWriteOnly;
    m.bth.dest_qp = qp_->qpn;
    m.bth.psn = roce::Psn(psn);
    m.bth.ack_req = ack_req;
    m.reth = roce::Reth{va, mr_->rkey(),
                        static_cast<std::uint32_t>(payload.size())};
    m.payload = std::move(payload);
    return m;
  }

  RoceMessage read_request(std::uint32_t psn, std::uint64_t va,
                           std::uint32_t len) {
    RoceMessage m;
    m.bth.opcode = Opcode::kRdmaReadRequest;
    m.bth.dest_qp = qp_->qpn;
    m.bth.psn = roce::Psn(psn);
    m.reth = roce::Reth{va, mr_->rkey(), len};
    return m;
  }

  RoceMessage fetch_add(std::uint32_t psn, std::uint64_t va,
                        std::uint64_t add) {
    RoceMessage m;
    m.bth.opcode = Opcode::kFetchAdd;
    m.bth.dest_qp = qp_->qpn;
    m.bth.psn = roce::Psn(psn);
    m.atomic_eth = roce::AtomicEth{va, mr_->rkey(), add, 0};
    return m;
  }

  static constexpr std::uint32_t kPeerQpn = 0x200;
  sim::Simulator sim_;
  roce::RoceEndpoint nic_ep_{net::MacAddress::from_index(1),
                             net::Ipv4Address::from_index(1), 0xc000};
  roce::RoceEndpoint peer_ep_{net::MacAddress::from_index(2),
                              net::Ipv4Address::from_index(2), 0xd000};
  NicProfile profile_;
  std::unique_ptr<Rnic> nic_;
  MemoryRegion* mr_ = nullptr;
  QueuePair* qp_ = nullptr;
  std::vector<net::Packet> out_;
};

TEST_F(ResponderTest, WriteOnlyLandsInMemory) {
  deliver(write_only(0, mr_->base_va() + 16, {1, 2, 3, 4}));
  EXPECT_EQ(mr_->bytes()[16], 1);
  EXPECT_EQ(mr_->bytes()[19], 4);
  EXPECT_EQ(nic_->stats().writes, 1u);
  EXPECT_TRUE(out_.empty()) << "no ACK without ack_req";
  EXPECT_EQ(qp_->epsn, roce::Psn(1));
}

TEST_F(ResponderTest, WriteWithAckReqGetsAck) {
  deliver(write_only(0, mr_->base_va(), {9}, /*ack_req=*/true));
  auto resp = responses();
  ASSERT_EQ(resp.size(), 1u);
  EXPECT_EQ(resp[0].opcode(), Opcode::kAcknowledge);
  EXPECT_EQ(resp[0].bth.psn, roce::Psn(0));
  EXPECT_EQ(resp[0].bth.dest_qp, kPeerQpn);
  EXPECT_EQ(resp[0].aeth->syndrome, AckSyndrome::kAck);
  EXPECT_EQ(resp[0].aeth->msn, 1u);
}

TEST_F(ResponderTest, MultiPacketWriteReassembles) {
  const std::uint64_t va = mr_->base_va() + 100;
  RoceMessage first;
  first.bth.opcode = Opcode::kRdmaWriteFirst;
  first.bth.dest_qp = qp_->qpn;
  first.bth.psn = roce::Psn(0);
  first.reth = roce::Reth{va, mr_->rkey(), 12};
  first.payload = {1, 1, 1, 1};
  deliver(std::move(first));

  RoceMessage middle;
  middle.bth.opcode = Opcode::kRdmaWriteMiddle;
  middle.bth.dest_qp = qp_->qpn;
  middle.bth.psn = roce::Psn(1);
  middle.payload = {2, 2, 2, 2};
  deliver(std::move(middle));

  RoceMessage last;
  last.bth.opcode = Opcode::kRdmaWriteLast;
  last.bth.dest_qp = qp_->qpn;
  last.bth.psn = roce::Psn(2);
  last.bth.ack_req = true;
  last.payload = {3, 3, 3, 3};
  deliver(std::move(last));

  const auto bytes = mr_->bytes();
  EXPECT_EQ(bytes[100], 1);
  EXPECT_EQ(bytes[104], 2);
  EXPECT_EQ(bytes[108], 3);
  EXPECT_EQ(qp_->epsn, roce::Psn(3));
  EXPECT_EQ(qp_->writes_executed, 1u);  // one *message*
  ASSERT_EQ(responses().size(), 1u);
}

TEST_F(ResponderTest, ReadSingleSegment) {
  auto window = mr_->window(mr_->base_va() + 8, 4);
  window[0] = 0xde;
  window[3] = 0xad;
  deliver(read_request(0, mr_->base_va() + 8, 4));
  auto resp = responses();
  ASSERT_EQ(resp.size(), 1u);
  EXPECT_EQ(resp[0].opcode(), Opcode::kRdmaReadResponseOnly);
  EXPECT_EQ(resp[0].bth.psn, roce::Psn(0));
  ASSERT_EQ(resp[0].payload.size(), 4u);
  EXPECT_EQ(resp[0].payload[0], 0xde);
  EXPECT_EQ(resp[0].payload[3], 0xad);
  EXPECT_EQ(qp_->epsn, roce::Psn(1));
}

TEST_F(ResponderTest, ReadSegmentsAtPathMtu) {
  const std::uint32_t len = 10000;  // 4096+4096+1808 at default MTU
  deliver(read_request(0, mr_->base_va(), len));
  auto resp = responses();
  ASSERT_EQ(resp.size(), 3u);
  EXPECT_EQ(resp[0].opcode(), Opcode::kRdmaReadResponseFirst);
  EXPECT_EQ(resp[1].opcode(), Opcode::kRdmaReadResponseMiddle);
  EXPECT_EQ(resp[2].opcode(), Opcode::kRdmaReadResponseLast);
  EXPECT_EQ(resp[0].bth.psn, roce::Psn(0));
  EXPECT_EQ(resp[1].bth.psn, roce::Psn(1));
  EXPECT_EQ(resp[2].bth.psn, roce::Psn(2));
  EXPECT_EQ(resp[0].payload.size(), 4096u);
  EXPECT_EQ(resp[2].payload.size(), 10000u - 2 * 4096u);
  EXPECT_FALSE(resp[1].aeth.has_value());
  ASSERT_TRUE(resp[2].aeth.has_value());
  // A READ consumes one PSN per response segment.
  EXPECT_EQ(qp_->epsn, roce::Psn(3));
}

TEST_F(ResponderTest, FetchAddReturnsOriginalAndApplies) {
  auto window = mr_->window(mr_->base_va(), 8);
  store_le64(window, 41);
  deliver(fetch_add(0, mr_->base_va(), 1));
  EXPECT_EQ(load_le64(window), 42u);
  auto resp = responses();
  ASSERT_EQ(resp.size(), 1u);
  EXPECT_EQ(resp[0].opcode(), Opcode::kAtomicAcknowledge);
  ASSERT_TRUE(resp[0].atomic_ack.has_value());
  EXPECT_EQ(resp[0].atomic_ack->original_value, 41u);
}

TEST_F(ResponderTest, FetchAddWrapImplementsSubtraction) {
  auto window = mr_->window(mr_->base_va(), 8);
  store_le64(window, 10);
  deliver(fetch_add(0, mr_->base_va(), ~std::uint64_t{0}));  // -1
  EXPECT_EQ(load_le64(window), 9u);
}

TEST_F(ResponderTest, DuplicateAtomicAnsweredFromReplayCache) {
  auto window = mr_->window(mr_->base_va(), 8);
  store_le64(window, 100);
  deliver(fetch_add(0, mr_->base_va(), 1));
  out_.clear();
  deliver(fetch_add(0, mr_->base_va(), 1));  // duplicate PSN
  EXPECT_EQ(load_le64(window), 101u) << "must not double-apply";
  auto resp = responses();
  ASSERT_EQ(resp.size(), 1u);
  EXPECT_EQ(resp[0].opcode(), Opcode::kAtomicAcknowledge);
  EXPECT_EQ(resp[0].atomic_ack->original_value, 100u);
  EXPECT_EQ(qp_->duplicates_seen, 1u);
}

TEST_F(ResponderTest, DuplicateReadReServed) {
  deliver(read_request(0, mr_->base_va(), 8));
  out_.clear();
  deliver(read_request(0, mr_->base_va(), 8));  // duplicate
  EXPECT_EQ(responses().size(), 1u);
  EXPECT_EQ(qp_->epsn, roce::Psn(1)) << "duplicate must not advance epsn";
}

TEST_F(ResponderTest, PsnGapNaksInStrictMode) {
  deliver(write_only(5, mr_->base_va(), {1}));  // expected PSN is 0
  auto resp = responses();
  ASSERT_EQ(resp.size(), 1u);
  EXPECT_EQ(resp[0].opcode(), Opcode::kAcknowledge);
  EXPECT_EQ(resp[0].aeth->syndrome, AckSyndrome::kNakSequenceError);
  EXPECT_EQ(resp[0].bth.psn, roce::Psn(0)) << "NAK carries the expected PSN";
  EXPECT_EQ(nic_->stats().writes, 0u);
}

TEST_F(ResponderTest, PsnGapToleratedWhenConfigured) {
  qp_->tolerate_psn_gaps = true;
  deliver(write_only(5, mr_->base_va(), {7}));
  EXPECT_EQ(nic_->stats().writes, 1u);
  EXPECT_EQ(mr_->bytes()[0], 7);
  EXPECT_EQ(qp_->epsn, roce::Psn(6));
}

TEST_F(ResponderTest, BadRkeyNaksRemoteAccess) {
  RoceMessage m = write_only(0, mr_->base_va(), {1});
  m.reth->rkey = 0xdead;
  deliver(std::move(m));
  auto resp = responses();
  ASSERT_EQ(resp.size(), 1u);
  EXPECT_EQ(resp[0].aeth->syndrome, AckSyndrome::kNakRemoteAccessError);
}

TEST_F(ResponderTest, OutOfBoundsWriteRejected) {
  deliver(write_only(0, mr_->base_va() + mr_->length() - 2, {1, 2, 3, 4}));
  auto resp = responses();
  ASSERT_EQ(resp.size(), 1u);
  EXPECT_EQ(resp[0].aeth->syndrome, AckSyndrome::kNakRemoteAccessError);
  EXPECT_EQ(nic_->stats().writes, 0u);
}

TEST_F(ResponderTest, UnknownQpDropped) {
  RoceMessage m = write_only(0, mr_->base_va(), {1});
  m.bth.dest_qp = 0xeeee;
  deliver(std::move(m));
  EXPECT_EQ(nic_->stats().unknown_qp_dropped, 1u);
  EXPECT_TRUE(out_.empty());
}

TEST_F(ResponderTest, NonRoceFrameNotConsumed) {
  net::Packet p = net::build_udp_packet(
      peer_ep_.mac, nic_ep_.mac, peer_ep_.ip, nic_ep_.ip, 1, 2,
      std::vector<std::uint8_t>(20, 0));
  EXPECT_FALSE(nic_->handle_frame(p));
}

TEST_F(ResponderTest, CorruptRoceConsumedAndDropped) {
  net::Packet p =
      roce::build_roce_packet(peer_ep_, nic_ep_, write_only(0, mr_->base_va(), {1}));
  p.mutable_bytes()[p.size() - 1] ^= 0xff;  // break ICRC
  EXPECT_TRUE(nic_->handle_frame(p));
  sim_.run();
  EXPECT_EQ(nic_->stats().corrupt_dropped, 1u);
  EXPECT_EQ(nic_->stats().writes, 0u);
}

TEST_F(ResponderTest, RxQueueOverflowDrops) {
  // Stuff more requests in one instant than the queue holds.
  const std::size_t depth = profile_.rx_queue_depth;
  for (std::size_t i = 0; i < depth + 10; ++i) {
    EXPECT_TRUE(nic_->handle_frame(roce::build_roce_packet(
        peer_ep_, nic_ep_,
        fetch_add(static_cast<std::uint32_t>(i), mr_->base_va(), 1))));
  }
  sim_.run();
  // The first request moves straight into service, so the NIC absorbs
  // depth+1 requests before dropping.
  EXPECT_EQ(nic_->stats().requests_dropped_overflow, 9u);
  EXPECT_EQ(nic_->stats().atomics, depth + 1);
}

TEST_F(ResponderTest, KillMidServiceDropsTheRequestInService) {
  // The request in service when the NIC dies completes as dead_dropped;
  // the one still queued dies with the RX queue, uncounted.
  for (std::uint32_t psn : {0u, 1u}) {
    EXPECT_TRUE(nic_->handle_frame(roce::build_roce_packet(
        peer_ep_, nic_ep_, fetch_add(psn, mr_->base_va(), 1))));
  }
  sim_.schedule_at(sim::nanoseconds(1), [this] { nic_->set_alive(false); });
  sim_.run();
  EXPECT_EQ(nic_->stats().dead_dropped, 1u);
  EXPECT_EQ(nic_->stats().atomics, 0u);
  EXPECT_TRUE(out_.empty());
}

TEST_F(ResponderTest, RestartMidServiceDropsTheRequestInService) {
  // restart() destroys every QP: the request in service finds none.
  EXPECT_TRUE(nic_->handle_frame(roce::build_roce_packet(
      peer_ep_, nic_ep_, fetch_add(0, mr_->base_va(), 1))));
  sim_.schedule_at(sim::nanoseconds(1), [this] { nic_->restart(); });
  sim_.run();
  EXPECT_EQ(nic_->stats().unknown_qp_dropped, 1u);
  EXPECT_EQ(nic_->stats().atomics, 0u);
  EXPECT_TRUE(nic_->alive());
  EXPECT_TRUE(out_.empty());
}

TEST_F(ResponderTest, AtomicRateModelPacesService) {
  // Two atomics delivered back to back complete one atomic_overhead
  // apart (plus the 8-byte DMA cost).
  EXPECT_TRUE(nic_->handle_frame(roce::build_roce_packet(
      peer_ep_, nic_ep_, fetch_add(0, mr_->base_va(), 1))));
  EXPECT_TRUE(nic_->handle_frame(roce::build_roce_packet(
      peer_ep_, nic_ep_, fetch_add(1, mr_->base_va(), 1))));
  sim_.run();
  ASSERT_EQ(out_.size(), 2u);
  const sim::Time per_op = profile_.atomic_overhead +
                           sim::transmission_time(8, profile_.dma_bandwidth);
  EXPECT_EQ(sim_.now(), 2 * per_op);
}

}  // namespace
}  // namespace xmem::rnic
