// Unit tests for the RoCE layer: opcode properties, header round trips,
// PSN arithmetic, frame build/parse with ICRC validation, RoCEv1/GRH,
// and the §4 header-overhead arithmetic the paper quotes.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "net/checksum.hpp"
#include "net/packet.hpp"
#include "roce/grh.hpp"
#include "roce/headers.hpp"
#include "roce/opcodes.hpp"
#include "roce/packet.hpp"
#include "sim/rng.hpp"

namespace xmem::roce {
namespace {

RoceEndpoint endpoint_a() {
  return {net::MacAddress::from_index(1), net::Ipv4Address::from_index(1),
          0xd000};
}
RoceEndpoint endpoint_b() {
  return {net::MacAddress::from_index(2), net::Ipv4Address::from_index(2),
          0xc000};
}

TEST(Opcodes, Classification) {
  EXPECT_TRUE(is_write(Opcode::kRdmaWriteOnly));
  EXPECT_TRUE(is_write(Opcode::kRdmaWriteMiddle));
  EXPECT_FALSE(is_write(Opcode::kRdmaReadRequest));
  EXPECT_TRUE(is_read_request(Opcode::kRdmaReadRequest));
  EXPECT_TRUE(is_read_response(Opcode::kRdmaReadResponseOnly));
  EXPECT_TRUE(is_atomic(Opcode::kFetchAdd));
  EXPECT_TRUE(is_atomic(Opcode::kCompareSwap));
  EXPECT_TRUE(is_request(Opcode::kFetchAdd));
  EXPECT_TRUE(is_response(Opcode::kAcknowledge));
  EXPECT_TRUE(is_response(Opcode::kAtomicAcknowledge));
  EXPECT_FALSE(is_response(Opcode::kRdmaWriteOnly));
}

TEST(Opcodes, ExtensionHeaderPresence) {
  EXPECT_TRUE(has_reth(Opcode::kRdmaWriteOnly));
  EXPECT_TRUE(has_reth(Opcode::kRdmaWriteFirst));
  EXPECT_FALSE(has_reth(Opcode::kRdmaWriteMiddle));
  EXPECT_FALSE(has_reth(Opcode::kRdmaWriteLast));
  EXPECT_TRUE(has_reth(Opcode::kRdmaReadRequest));
  EXPECT_TRUE(has_atomic_eth(Opcode::kFetchAdd));
  EXPECT_TRUE(has_aeth(Opcode::kAcknowledge));
  EXPECT_TRUE(has_aeth(Opcode::kRdmaReadResponseOnly));
  EXPECT_TRUE(has_aeth(Opcode::kRdmaReadResponseFirst));
  EXPECT_FALSE(has_aeth(Opcode::kRdmaReadResponseMiddle));
  EXPECT_TRUE(has_atomic_ack_eth(Opcode::kAtomicAcknowledge));
  EXPECT_TRUE(has_payload(Opcode::kRdmaWriteOnly));
  EXPECT_TRUE(has_payload(Opcode::kRdmaReadResponseMiddle));
  EXPECT_FALSE(has_payload(Opcode::kFetchAdd));
}

TEST(Psn, AddWraps24Bits) {
  EXPECT_EQ(psn_add(Psn(0xfffffe), 1), Psn(0xffffff));
  EXPECT_EQ(psn_add(Psn(0xffffff), 1), Psn(0));
  EXPECT_EQ(psn_add(Psn(0xffffff), 2), Psn(1));
}

TEST(Psn, DistanceSigned) {
  EXPECT_EQ(psn_distance(Psn(5), Psn(10)), 5);
  EXPECT_EQ(psn_distance(Psn(10), Psn(5)), -5);
  EXPECT_EQ(psn_distance(Psn(0xffffff), Psn(0)), 1);
  EXPECT_EQ(psn_distance(Psn(0), Psn(0xffffff)), -1);
  EXPECT_EQ(psn_distance(Psn(7), Psn(7)), 0);
}

TEST(Headers, BthRoundTrip) {
  Bth h;
  h.opcode = Opcode::kFetchAdd;
  h.solicited_event = true;
  h.pad_count = 3;
  h.pkey = 0x1234;
  h.dest_qp = 0xabcdef;
  h.ack_req = true;
  h.psn = Psn(0x123456);
  std::vector<std::uint8_t> buf;
  net::ByteWriter w(buf);
  h.serialize(w);
  ASSERT_EQ(buf.size(), kBthBytes);
  net::ByteReader r(buf);
  EXPECT_EQ(Bth::parse(r), h);
}

TEST(Headers, RethRoundTrip) {
  Reth h{0x123456789abcdef0ULL, 0xcafe, 4096};
  std::vector<std::uint8_t> buf;
  net::ByteWriter w(buf);
  h.serialize(w);
  ASSERT_EQ(buf.size(), kRethBytes);
  net::ByteReader r(buf);
  EXPECT_EQ(Reth::parse(r), h);
}

TEST(Headers, AtomicEthRoundTrip) {
  AtomicEth h{0xdeadbeef0000ULL, 0x77, 42, 99};
  std::vector<std::uint8_t> buf;
  net::ByteWriter w(buf);
  h.serialize(w);
  ASSERT_EQ(buf.size(), kAtomicEthBytes);
  net::ByteReader r(buf);
  EXPECT_EQ(AtomicEth::parse(r), h);
}

TEST(Headers, AethRoundTripAndNak) {
  Aeth ok{AckSyndrome::kAck, 0x123456};
  EXPECT_FALSE(ok.is_nak());
  Aeth nak{AckSyndrome::kNakSequenceError, 5};
  EXPECT_TRUE(nak.is_nak());
  std::vector<std::uint8_t> buf;
  net::ByteWriter w(buf);
  nak.serialize(w);
  net::ByteReader r(buf);
  EXPECT_EQ(Aeth::parse(r), nak);
}

TEST(Grh, RoundTripAndGid) {
  Grh h;
  h.traffic_class = 7;
  h.flow_label = 0xabcde;
  h.payload_length = 100;
  h.sgid = Grh::gid_from_ipv4(0x0a000001);
  h.dgid = Grh::gid_from_ipv4(0x0a000002);
  std::vector<std::uint8_t> buf;
  net::ByteWriter w(buf);
  h.serialize(w);
  ASSERT_EQ(buf.size(), kGrhBytes);
  net::ByteReader r(buf);
  EXPECT_EQ(Grh::parse(r), h);
  // ::ffff:10.0.0.1 embedding
  EXPECT_EQ(h.sgid[10], 0xff);
  EXPECT_EQ(h.sgid[15], 0x01);
}

TEST(RocePacket, WriteOnlyRoundTrip) {
  RoceMessage msg;
  msg.bth.opcode = Opcode::kRdmaWriteOnly;
  msg.bth.dest_qp = 0x11;
  msg.bth.psn = Psn(42);
  msg.reth = Reth{0x1000, 0xaa, 5};
  msg.payload = {1, 2, 3, 4, 5};

  net::Packet frame = build_roce_packet(endpoint_a(), endpoint_b(), msg);
  auto parsed = parse_roce_packet(frame);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->opcode(), Opcode::kRdmaWriteOnly);
  EXPECT_EQ(parsed->bth.psn, Psn(42));
  EXPECT_EQ(parsed->reth->va, 0x1000u);
  EXPECT_EQ(parsed->payload, msg.payload);
}

TEST(RocePacket, PaddingRestoredExactly) {
  for (std::size_t len : {0u, 1u, 2u, 3u, 4u, 5u, 31u}) {
    RoceMessage msg;
    msg.bth.opcode = Opcode::kRdmaWriteOnly;
    msg.reth = Reth{0, 0, static_cast<std::uint32_t>(len)};
    msg.payload.assign(len, 0x5a);
    net::Packet frame = build_roce_packet(endpoint_a(), endpoint_b(), msg);
    auto parsed = parse_roce_packet(frame);
    ASSERT_TRUE(parsed.has_value()) << "len=" << len;
    EXPECT_EQ(parsed->payload.size(), len) << "len=" << len;
  }
}

TEST(RocePacket, IcrcRejectsCorruption) {
  RoceMessage msg;
  msg.bth.opcode = Opcode::kRdmaWriteOnly;
  msg.reth = Reth{0, 0, 4};
  msg.payload = {9, 9, 9, 9};
  net::Packet frame = build_roce_packet(endpoint_a(), endpoint_b(), msg);
  ASSERT_TRUE(parse_roce_packet(frame).has_value());
  // Flip one payload bit.
  frame.mutable_bytes()[frame.size() - 6] ^= 0x01;
  EXPECT_FALSE(parse_roce_packet(frame).has_value());
}

TEST(RocePacket, CorruptingAFrameLeavesItsParsedPayloadAlone) {
  // The Link corrupt fault flips a byte through mutable_bytes() after a
  // node may already hold the parsed message. The message keeps the
  // bytes it was parsed from, and the damaged frame no longer verifies.
  RoceMessage msg;
  msg.bth.opcode = Opcode::kRdmaWriteOnly;
  msg.reth = Reth{0, 0, 64};
  msg.payload.assign(64, 0x5a);
  net::Packet frame = build_roce_packet(endpoint_a(), endpoint_b(), msg);
  const auto parsed = parse_roce_packet(frame);
  ASSERT_TRUE(parsed.has_value());

  frame.mutable_bytes()[frame.size() - kIcrcBytes - 1] ^= 0xff;
  EXPECT_EQ(parsed->payload, msg.payload);
  EXPECT_FALSE(parse_roce_packet(frame).has_value());
}

// Bitwise CRC-32 and the copy-and-mask pseudo-frame: the reference
// oracle compute_icrc() must match on every frame.
std::uint32_t crc32_bitwise(std::span<const std::uint8_t> data) {
  std::uint32_t c = 0xffffffffu;
  for (const std::uint8_t byte : data) {
    c ^= byte;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
    }
  }
  return c ^ 0xffffffffu;
}

std::uint32_t icrc_reference(std::span<const std::uint8_t> frame,
                             RoceVersion version) {
  std::vector<std::uint8_t> pseudo(8 + frame.size() - net::kEthernetHeaderBytes,
                                   0xff);
  std::copy(frame.begin() + net::kEthernetHeaderBytes, frame.end(),
            pseudo.begin() + 8);
  if (version == RoceVersion::kV2) {
    for (const std::size_t i : {9u, 16u, 18u, 19u, 34u, 35u, 40u}) {
      pseudo[i] = 0xff;  // ToS, TTL, IP checksum, UDP checksum, resv8a
    }
  } else {
    pseudo[8] |= 0x0f;  // traffic class, low nibble of byte 0
    pseudo[9] |= 0xf0;  // traffic class, high nibble of byte 1
    pseudo[15] = 0xff;  // hop limit
    pseudo[52] = 0xff;  // BTH resv8a
  }
  return crc32_bitwise(pseudo);
}

/// True if the frame's trailing ICRC matches one recomputed over it.
bool icrc_verifies(const net::Packet& frame, RoceVersion version) {
  const auto bytes = frame.bytes();
  net::ByteReader r(bytes.subspan(bytes.size() - kIcrcBytes));
  return r.u32() ==
         compute_icrc(bytes.first(bytes.size() - kIcrcBytes), version);
}

net::Packet write_frame(std::size_t payload, RoceVersion version) {
  RoceMessage msg;
  msg.bth.opcode = Opcode::kRdmaWriteOnly;
  msg.bth.dest_qp = 0x123456;
  msg.reth = Reth{0x1000, 0xaa, static_cast<std::uint32_t>(payload)};
  msg.payload.assign(payload, 0x5a);
  return build_roce_packet(endpoint_a(), endpoint_b(), msg, version);
}

TEST(RocePacket, IcrcMatchesCopyAndMaskReference) {
  sim::Rng rng(2024);
  for (const RoceVersion version : {RoceVersion::kV2, RoceVersion::kV1}) {
    const std::size_t min_len =
        net::kEthernetHeaderBytes + kBthBytes +
        (version == RoceVersion::kV2
             ? net::kIpv4HeaderBytes + net::kUdpHeaderBytes
             : kGrhBytes);
    for (int trial = 0; trial < 300; ++trial) {
      // Arbitrary bytes: compute_icrc must mask by offset alone.
      std::vector<std::uint8_t> junk(min_len + rng.uniform(1600));
      for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next());
      EXPECT_EQ(compute_icrc(junk, version), icrc_reference(junk, version))
          << "trial " << trial << " len " << junk.size();

      // A built frame: the stored ICRC is the reference one.
      RoceMessage msg;
      msg.bth.opcode = Opcode::kRdmaWriteOnly;
      msg.bth.psn = Psn(static_cast<std::uint32_t>(rng.uniform(1u << 24)));
      std::vector<std::uint8_t> payload(rng.uniform(1500));
      for (auto& b : payload) b = static_cast<std::uint8_t>(rng.next());
      msg.payload = std::move(payload);
      msg.reth = Reth{rng.next(), static_cast<std::uint32_t>(rng.next()),
                      static_cast<std::uint32_t>(msg.payload.size())};
      const net::Packet frame =
          build_roce_packet(endpoint_a(), endpoint_b(), msg, version);
      const auto bytes = frame.bytes();
      net::ByteReader r(bytes.subspan(bytes.size() - kIcrcBytes));
      EXPECT_EQ(r.u32(),
                icrc_reference(bytes.first(bytes.size() - kIcrcBytes),
                               version));
    }
  }
}

TEST(RocePacket, IcrcIgnoresMutableFields) {
  const net::Packet v2 = write_frame(64, RoceVersion::kV2);
  // Rewriting DSCP (ToS + IP checksum change) must not break the ICRC —
  // switches legitimately remark RoCE traffic in flight.
  net::Packet dscp = v2.clone();
  ASSERT_TRUE(net::rewrite_dscp(dscp, 46));
  EXPECT_TRUE(parse_roce_packet(dscp).has_value());
  // Nor may a congestion mark.
  net::Packet ecn = v2.clone();
  ASSERT_TRUE(net::set_ecn(ecn, net::Ecn::kCe));
  auto marked = parse_roce_packet(ecn);
  ASSERT_TRUE(marked.has_value());
  EXPECT_EQ(marked->ecn, net::Ecn::kCe);
  // A router's TTL decrement, with the IP checksum refreshed.
  net::Packet ttl = v2.clone();
  {
    const auto ip = ttl.mutable_bytes().subspan(net::kEthernetHeaderBytes,
                                                net::kIpv4HeaderBytes);
    ip[8] = static_cast<std::uint8_t>(ip[8] - 1);
    ip[10] = ip[11] = 0;
    const std::uint16_t sum = net::internet_checksum(ip);
    ip[10] = static_cast<std::uint8_t>(sum >> 8);
    ip[11] = static_cast<std::uint8_t>(sum);
  }
  EXPECT_TRUE(parse_roce_packet(ttl).has_value());

  // Every masked byte on its own: the ICRC still verifies. (A lone IP
  // checksum change still fails IPv4 validation at parse; the ICRC is
  // not what rejects it.)
  const std::size_t ip = net::kEthernetHeaderBytes;
  const std::size_t bth = ip + net::kIpv4HeaderBytes + net::kUdpHeaderBytes;
  for (const std::size_t at : {ip + 1, ip + 8, ip + 10, ip + 11,
                               ip + 20 + 6, ip + 20 + 7, bth + 4}) {
    net::Packet p = v2.clone();
    p.mutable_bytes()[at] ^= 0xa5;
    EXPECT_TRUE(icrc_verifies(p, RoceVersion::kV2)) << "v2 byte " << at;
  }

  // RoCEv1: traffic class (low nibble of GRH byte 0, high nibble of
  // byte 1), hop limit, and BTH resv8a.
  const net::Packet v1 = write_frame(64, RoceVersion::kV1);
  const std::size_t grh = net::kEthernetHeaderBytes;
  struct Flip {
    std::size_t at;
    std::uint8_t mask;
  };
  for (const Flip f : {Flip{grh + 0, 0x0f}, Flip{grh + 1, 0xf0},
                       Flip{grh + 7, 0xff}, Flip{grh + kGrhBytes + 4, 0xff}}) {
    net::Packet p = v1.clone();
    p.mutable_bytes()[f.at] ^= f.mask;
    EXPECT_TRUE(icrc_verifies(p, RoceVersion::kV1)) << "v1 byte " << f.at;
    EXPECT_TRUE(parse_roce_packet(p).has_value()) << "v1 byte " << f.at;
  }
}

TEST(RocePacket, IcrcCoversUnmaskedHeaderBytes) {
  // The converse: a flip in a header byte the ICRC does not mask (the
  // BTH destination QP) is rejected, in both encapsulations.
  for (const RoceVersion version : {RoceVersion::kV2, RoceVersion::kV1}) {
    const std::size_t bth =
        net::kEthernetHeaderBytes +
        (version == RoceVersion::kV2
             ? net::kIpv4HeaderBytes + net::kUdpHeaderBytes
             : kGrhBytes);
    for (const std::size_t at : {bth + 5, bth + 6, bth + 7}) {
      net::Packet p = write_frame(64, version);
      p.mutable_bytes()[at] ^= 0x01;
      EXPECT_FALSE(icrc_verifies(p, version)) << "byte " << at;
      EXPECT_FALSE(parse_roce_packet(p).has_value()) << "byte " << at;
    }
  }
}

TEST(RocePacket, ComputeIcrcRejectsFramesShorterThanItsHeaders) {
  const std::size_t v2_min = net::kEthernetHeaderBytes +
                             net::kIpv4HeaderBytes + net::kUdpHeaderBytes +
                             kBthBytes;
  const std::size_t v1_min = net::kEthernetHeaderBytes + kGrhBytes + kBthBytes;
  const std::vector<std::uint8_t> tiny(10, 0);
  EXPECT_THROW((void)compute_icrc(tiny, RoceVersion::kV2),
               std::invalid_argument);
  EXPECT_THROW((void)compute_icrc(tiny, RoceVersion::kV1),
               std::invalid_argument);
  const std::vector<std::uint8_t> v2_short(v2_min - 1, 0);
  EXPECT_THROW((void)compute_icrc(v2_short, RoceVersion::kV2),
               std::invalid_argument);
  const std::vector<std::uint8_t> v1_short(v1_min - 1, 0);
  EXPECT_THROW((void)compute_icrc(v1_short, RoceVersion::kV1),
               std::invalid_argument);

  // A BTH-only frame (WRITE Middle, no payload) is exactly the minimum.
  for (const RoceVersion version : {RoceVersion::kV2, RoceVersion::kV1}) {
    RoceMessage msg;
    msg.bth.opcode = Opcode::kRdmaWriteMiddle;
    const net::Packet frame =
        build_roce_packet(endpoint_a(), endpoint_b(), msg, version);
    EXPECT_EQ(frame.size() - kIcrcBytes,
              version == RoceVersion::kV2 ? v2_min : v1_min);
    EXPECT_NO_THROW(EXPECT_TRUE(icrc_verifies(frame, version)));
    EXPECT_TRUE(parse_roce_packet(frame).has_value());
  }
}

TEST(RocePacket, NonRoceReturnsNullopt) {
  net::Packet p = net::build_udp_packet(
      net::MacAddress::from_index(1), net::MacAddress::from_index(2),
      net::Ipv4Address(1, 1, 1, 1), net::Ipv4Address(2, 2, 2, 2), 5, 6,
      std::vector<std::uint8_t>(20, 0));
  EXPECT_FALSE(parse_roce_packet(p).has_value());
  net::Packet garbage(std::vector<std::uint8_t>(8, 0));
  EXPECT_FALSE(parse_roce_packet(garbage).has_value());
}

TEST(RocePacket, HeaderOpcodeMismatchThrows) {
  RoceMessage msg;
  msg.bth.opcode = Opcode::kRdmaWriteOnly;  // needs RETH
  EXPECT_THROW(build_roce_packet(endpoint_a(), endpoint_b(), msg),
               std::invalid_argument);
  RoceMessage atomic;
  atomic.bth.opcode = Opcode::kFetchAdd;
  atomic.atomic_eth = AtomicEth{};
  atomic.payload = {1};  // atomics carry no payload
  EXPECT_THROW(build_roce_packet(endpoint_a(), endpoint_b(), atomic),
               std::invalid_argument);
}

TEST(RocePacket, RoceV1RoundTrip) {
  RoceMessage msg;
  msg.bth.opcode = Opcode::kFetchAdd;
  msg.bth.dest_qp = 3;
  msg.atomic_eth = AtomicEth{0x2000, 0xbb, 1, 0};
  net::Packet frame =
      build_roce_packet(endpoint_a(), endpoint_b(), msg, RoceVersion::kV1);
  // EtherType must be the RoCEv1 value.
  EXPECT_EQ(frame.bytes()[12], 0x89);
  EXPECT_EQ(frame.bytes()[13], 0x15);
  auto parsed = parse_roce_packet(frame);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->opcode(), Opcode::kFetchAdd);
  EXPECT_EQ(parsed->atomic_eth->va, 0x2000u);
}

// --- The §4 overhead arithmetic the paper quotes ----------------------
TEST(Overhead, PaperSection4Numbers) {
  // "RoCEv2 protocol adds 40 bytes of headers" (IP 20 + UDP 8 + BTH 12)
  // "+ an RDMA operation-specific header of 16 (WRITE/READ)".
  EXPECT_EQ(roce_overhead_bytes(Opcode::kRdmaWriteOnly, RoceVersion::kV2),
            40u + 16u + kIcrcBytes);
  EXPECT_EQ(roce_overhead_bytes(Opcode::kRdmaReadRequest, RoceVersion::kV2),
            40u + 16u + kIcrcBytes);
  // "or 28 bytes (Fetch-and-Add)".
  EXPECT_EQ(roce_overhead_bytes(Opcode::kFetchAdd, RoceVersion::kV2),
            40u + 28u + kIcrcBytes);
  // "(52 bytes in the case of RoCEv1)" (GRH 40 + BTH 12).
  EXPECT_EQ(roce_overhead_bytes(Opcode::kRdmaWriteOnly, RoceVersion::kV1),
            52u + 16u + kIcrcBytes);
}

TEST(Overhead, MatchesActualFrames) {
  // The analytical overhead must equal measured bytes on real frames.
  RoceMessage msg;
  msg.bth.opcode = Opcode::kRdmaWriteOnly;
  msg.reth = Reth{0, 0, 1000};
  msg.payload.assign(1000, 0);
  net::Packet frame = build_roce_packet(endpoint_a(), endpoint_b(), msg);
  EXPECT_EQ(frame.size(),
            net::kEthernetHeaderBytes +
                roce_overhead_bytes(Opcode::kRdmaWriteOnly) + 1000);
}

// Property sweep: every opcode with every extension round-trips.
struct OpcodeCase {
  Opcode op;
  bool payload;
};

class OpcodeRoundTrip : public ::testing::TestWithParam<OpcodeCase> {};

TEST_P(OpcodeRoundTrip, BuildParseIdentity) {
  const auto& param = GetParam();
  RoceMessage msg;
  msg.bth.opcode = param.op;
  msg.bth.dest_qp = 0x99;
  msg.bth.psn = Psn(7);
  if (has_reth(param.op)) msg.reth = Reth{0x800, 0x33, 256};
  if (has_atomic_eth(param.op)) msg.atomic_eth = AtomicEth{0x808, 0x33, 5, 0};
  if (has_aeth(param.op)) msg.aeth = Aeth{AckSyndrome::kAck, 3};
  if (has_atomic_ack_eth(param.op)) msg.atomic_ack = AtomicAckEth{77};
  if (param.payload) msg.payload.assign(100, 0xee);

  net::Packet frame = build_roce_packet(endpoint_a(), endpoint_b(), msg);
  auto parsed = parse_roce_packet(frame);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->opcode(), param.op);
  EXPECT_EQ(parsed->reth, msg.reth);
  EXPECT_EQ(parsed->atomic_eth, msg.atomic_eth);
  EXPECT_EQ(parsed->aeth, msg.aeth);
  EXPECT_EQ(parsed->atomic_ack, msg.atomic_ack);
  EXPECT_EQ(parsed->payload, msg.payload);
}

INSTANTIATE_TEST_SUITE_P(
    AllOpcodes, OpcodeRoundTrip,
    ::testing::Values(OpcodeCase{Opcode::kRdmaWriteFirst, true},
                      OpcodeCase{Opcode::kRdmaWriteMiddle, true},
                      OpcodeCase{Opcode::kRdmaWriteLast, true},
                      OpcodeCase{Opcode::kRdmaWriteOnly, true},
                      OpcodeCase{Opcode::kRdmaReadRequest, false},
                      OpcodeCase{Opcode::kCompareSwap, false},
                      OpcodeCase{Opcode::kFetchAdd, false},
                      OpcodeCase{Opcode::kRdmaReadResponseFirst, true},
                      OpcodeCase{Opcode::kRdmaReadResponseMiddle, true},
                      OpcodeCase{Opcode::kRdmaReadResponseLast, true},
                      OpcodeCase{Opcode::kRdmaReadResponseOnly, true},
                      OpcodeCase{Opcode::kAcknowledge, false},
                      OpcodeCase{Opcode::kAtomicAcknowledge, false}));

}  // namespace
}  // namespace xmem::roce
