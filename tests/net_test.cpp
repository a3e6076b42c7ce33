// Unit tests for the wire-format substrate: byte codecs, checksums,
// addresses, header round trips, packet build/parse/rewrite, flow keys,
// pcap output.
#include <gtest/gtest.h>

#include <sstream>

#include "net/address.hpp"
#include "net/bytes.hpp"
#include "net/checksum.hpp"
#include "net/ethernet.hpp"
#include "net/flow.hpp"
#include "net/ipv4.hpp"
#include "net/packet.hpp"
#include "net/pcap.hpp"
#include "net/udp.hpp"

namespace xmem::net {
namespace {

TEST(Bytes, WriterRoundTrip) {
  std::vector<std::uint8_t> buf;
  ByteWriter w(buf);
  w.u8(0xab);
  w.u16(0x1234);
  w.u24(0x56789a);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  ByteReader r(buf);
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u24(), 0x56789au);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(Bytes, BigEndianOnWire) {
  std::vector<std::uint8_t> buf;
  ByteWriter w(buf);
  w.u16(0x0102);
  ASSERT_EQ(buf.size(), 2u);
  EXPECT_EQ(buf[0], 0x01);
  EXPECT_EQ(buf[1], 0x02);
}

TEST(Bytes, ReaderUnderrunThrows) {
  std::vector<std::uint8_t> buf{1, 2};
  ByteReader r(buf);
  r.u16();
  EXPECT_THROW(r.u8(), BufferError);
}

TEST(Bytes, PatchU16) {
  std::vector<std::uint8_t> buf;
  ByteWriter w(buf);
  w.u16(0);
  w.u16(0xffff);
  w.patch_u16(0, 0xbeef);
  ByteReader r(buf);
  EXPECT_EQ(r.u16(), 0xbeef);
  EXPECT_THROW(w.patch_u16(3, 1), BufferError);
}

TEST(Bytes, SkipAndRest) {
  std::vector<std::uint8_t> buf{1, 2, 3, 4, 5};
  ByteReader r(buf);
  r.skip(2);
  EXPECT_EQ(r.rest().size(), 3u);
  EXPECT_EQ(r.u8(), 3);
  EXPECT_THROW(r.skip(10), BufferError);
}

TEST(Checksum, Rfc1071Example) {
  // Classic RFC 1071 worked example.
  const std::uint8_t data[] = {0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7};
  // Sum = 0001 + f203 + f4f5 + f6f7 = 2ddf0 -> folded ddf2 -> ~ = 220d.
  EXPECT_EQ(internet_checksum(data), 0x220d);
}

TEST(Checksum, OddLengthPadsWithZero) {
  const std::uint8_t data[] = {0x12, 0x34, 0x56};
  // Words: 1234, 5600. Sum 682a... -> checksum = ~0x682a.
  EXPECT_EQ(internet_checksum(data), static_cast<std::uint16_t>(~0x6834u));
}

TEST(Checksum, IncrementalMatchesOneShot) {
  std::vector<std::uint8_t> data;
  for (int i = 0; i < 999; ++i) data.push_back(static_cast<std::uint8_t>(i));
  InternetChecksum inc;
  inc.add(std::span<const std::uint8_t>(data).first(123));
  inc.add(std::span<const std::uint8_t>(data).subspan(123, 400));
  inc.add(std::span<const std::uint8_t>(data).subspan(523));
  EXPECT_EQ(inc.finish(), internet_checksum(data));
}

TEST(Checksum, IncrementalOddSplitMatches) {
  const std::uint8_t data[] = {1, 2, 3, 4, 5, 6, 7};
  InternetChecksum inc;
  inc.add(std::span<const std::uint8_t>(data, 3));  // odd split
  inc.add(std::span<const std::uint8_t>(data + 3, 4));
  EXPECT_EQ(inc.finish(), internet_checksum(data));
}

TEST(Crc32, KnownVectors) {
  // CRC32("123456789") = 0xCBF43926 (the canonical check value).
  const std::uint8_t digits[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(crc32(digits), 0xCBF43926u);
  EXPECT_EQ(crc32({}), 0u);
}

// Reference oracle: the bit-at-a-time reflected CRC-32, chained from
// `seed` like net::crc32.
std::uint32_t crc32_bitwise(std::span<const std::uint8_t> data,
                            std::uint32_t seed = 0) {
  std::uint32_t c = seed ^ 0xffffffffu;
  for (const std::uint8_t byte : data) {
    c ^= byte;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
    }
  }
  return c ^ 0xffffffffu;
}

std::vector<std::uint8_t> pattern_bytes(std::size_t n) {
  std::vector<std::uint8_t> v(n);
  std::uint32_t x = 12345;
  for (auto& b : v) {
    x = x * 1103515245u + 12345u;
    b = static_cast<std::uint8_t>(x >> 16);
  }
  return v;
}

// Every length to 300 covers both sides of the 64-byte cut-over to the
// carry-less-multiply fold (where the CPU has it), single 16-byte fold
// steps after one 64-byte block (80-127), multi-block folds and every
// tail length the table finishes; 1500 and 4096 are a frame and a page.
TEST(Crc32, MatchesBitwiseReferenceAtEveryLengthAndAlignment) {
  const std::vector<std::uint8_t> buf = pattern_bytes(4096 + 16);
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 300; ++n) lengths.push_back(n);
  lengths.push_back(1500);
  lengths.push_back(4096);
  for (std::size_t offset = 0; offset < 16; ++offset) {
    for (const std::size_t n : lengths) {
      const std::span<const std::uint8_t> data(buf.data() + offset, n);
      const auto seed = static_cast<std::uint32_t>(0x9e3779b9u * (n + 1));
      EXPECT_EQ(crc32(data), crc32_bitwise(data))
          << "offset " << offset << " length " << n;
      EXPECT_EQ(crc32(data, seed), crc32_bitwise(data, seed))
          << "offset " << offset << " length " << n << " seed " << seed;
    }
  }
}

TEST(Crc32, SeedChaining) {
  const std::uint8_t all[] = {'a', 'b', 'c', 'd'};
  const std::uint32_t whole = crc32(all);
  const std::uint32_t part1 = crc32(std::span<const std::uint8_t>(all, 2));
  const std::uint32_t chained =
      crc32(std::span<const std::uint8_t>(all + 2, 2), part1);
  EXPECT_EQ(chained, whole);
}

// 300 bytes: the splits chain fold -> table, table -> fold and
// fold -> fold as well as table -> table.
TEST(Crc32, SeedChainingHoldsAtEverySplit) {
  const std::vector<std::uint8_t> buf = pattern_bytes(300);
  const std::span<const std::uint8_t> all(buf);
  const std::uint32_t whole = crc32(all);
  for (std::size_t split = 0; split <= all.size(); ++split) {
    EXPECT_EQ(crc32(all.subspan(split), crc32(all.first(split))), whole)
        << "split " << split;
  }
}

TEST(Address, MacParseFormat) {
  const MacAddress mac = MacAddress::parse("02:58:4d:00:00:2a");
  EXPECT_EQ(mac.to_string(), "02:58:4d:00:00:2a");
  EXPECT_EQ(mac, MacAddress::from_index(42));
  EXPECT_THROW(MacAddress::parse("nonsense"), std::invalid_argument);
  EXPECT_TRUE(MacAddress::broadcast().is_broadcast());
}

TEST(Address, Ipv4ParseFormat) {
  const Ipv4Address ip = Ipv4Address::parse("10.0.1.44");
  EXPECT_EQ(ip.to_string(), "10.0.1.44");
  EXPECT_EQ(ip, Ipv4Address(10, 0, 1, 44));
  EXPECT_EQ(Ipv4Address::from_index(300), Ipv4Address(10, 0, 1, 44));
  EXPECT_THROW(Ipv4Address::parse("1.2.3.999"), std::invalid_argument);
  EXPECT_THROW(Ipv4Address::parse("1.2.3"), std::invalid_argument);
}

TEST(Ethernet, HeaderRoundTrip) {
  EthernetHeader h;
  h.dst = MacAddress::from_index(1);
  h.src = MacAddress::from_index(2);
  h.set_type(EtherType::kIpv4);
  std::vector<std::uint8_t> buf;
  ByteWriter w(buf);
  h.serialize(w);
  ASSERT_EQ(buf.size(), kEthernetHeaderBytes);
  ByteReader r(buf);
  EXPECT_EQ(EthernetHeader::parse(r), h);
}

TEST(Ethernet, WireBytesIncludesOverheadAndPadding) {
  // 60-byte minimum + 4 FCS + 20 preamble/IFG.
  EXPECT_EQ(wire_bytes(10), 84);
  EXPECT_EQ(wire_bytes(60), 84);
  EXPECT_EQ(wire_bytes(1514), 1514 + 4 + 20);
}

TEST(Ipv4, HeaderRoundTripAndChecksum) {
  Ipv4Header h;
  h.dscp = 46;
  h.ecn = Ecn::kEct0;
  h.total_length = 100;
  h.identification = 7;
  h.ttl = 17;
  h.protocol = static_cast<std::uint8_t>(IpProto::kUdp);
  h.src = Ipv4Address(10, 0, 0, 1);
  h.dst = Ipv4Address(10, 0, 0, 2);

  std::vector<std::uint8_t> buf;
  ByteWriter w(buf);
  h.serialize(w);
  ASSERT_EQ(buf.size(), kIpv4HeaderBytes);
  // A correct header checksums to zero.
  EXPECT_EQ(internet_checksum(buf), 0);

  ByteReader r(buf);
  const Ipv4Header parsed = Ipv4Header::parse(r);
  EXPECT_EQ(parsed.dscp, h.dscp);
  EXPECT_EQ(parsed.ecn, h.ecn);
  EXPECT_EQ(parsed.total_length, h.total_length);
  EXPECT_EQ(parsed.src, h.src);
  EXPECT_EQ(parsed.dst, h.dst);
}

TEST(Ipv4, CorruptChecksumRejected) {
  Ipv4Header h;
  h.total_length = 40;
  h.src = Ipv4Address(1, 2, 3, 4);
  h.dst = Ipv4Address(5, 6, 7, 8);
  std::vector<std::uint8_t> buf;
  ByteWriter w(buf);
  h.serialize(w);
  buf[4] ^= 0xff;  // corrupt identification
  ByteReader r(buf);
  EXPECT_THROW(Ipv4Header::parse(r), BufferError);
}

TEST(Udp, HeaderRoundTrip) {
  UdpHeader h{1234, kRoceV2Port, 50, 0};
  std::vector<std::uint8_t> buf;
  ByteWriter w(buf);
  h.serialize(w);
  ASSERT_EQ(buf.size(), kUdpHeaderBytes);
  ByteReader r(buf);
  EXPECT_EQ(UdpHeader::parse(r), h);
}

TEST(Packet, BuildAndParseUdp) {
  const std::uint8_t payload[] = {1, 2, 3, 4, 5};
  Packet p = build_udp_packet(MacAddress::from_index(1),
                              MacAddress::from_index(2),
                              Ipv4Address(10, 0, 0, 1),
                              Ipv4Address(10, 0, 0, 2), 111, 222, payload);
  EXPECT_EQ(p.size(), 14 + 20 + 8 + 5u);

  const ParsedPacket parsed = parse_packet(p);
  ASSERT_TRUE(parsed.ipv4.has_value());
  ASSERT_TRUE(parsed.udp.has_value());
  EXPECT_EQ(parsed.udp->src_port, 111);
  EXPECT_EQ(parsed.udp->dst_port, 222);
  EXPECT_EQ(parsed.ipv4->src, Ipv4Address(10, 0, 0, 1));
  EXPECT_EQ(parsed.l4_payload_offset, 42u);
  EXPECT_FALSE(parsed.is_roce_v2());
}

TEST(Packet, RoceV2PortDetection) {
  Packet p = build_udp_packet(MacAddress::from_index(1),
                              MacAddress::from_index(2),
                              Ipv4Address(10, 0, 0, 1),
                              Ipv4Address(10, 0, 0, 2), 111, kRoceV2Port, {});
  EXPECT_TRUE(parse_packet(p).is_roce_v2());
}

TEST(Packet, CloneIsDeep) {
  Packet p = build_udp_packet(MacAddress::from_index(1),
                              MacAddress::from_index(2),
                              Ipv4Address(10, 0, 0, 1),
                              Ipv4Address(10, 0, 0, 2), 1, 2, {});
  Packet c = p.clone();
  c.mutable_bytes()[0] ^= 0xff;
  EXPECT_NE(c.bytes()[0], p.bytes()[0]);
}

TEST(Packet, TruncateShrinksOnly) {
  Packet p(std::vector<std::uint8_t>(100, 7));
  p.truncate(200);
  EXPECT_EQ(p.size(), 100u);
  p.truncate(10);
  EXPECT_EQ(p.size(), 10u);
}

TEST(Packet, CloneSharesStorageUntilMutation) {
  Packet p(std::vector<std::uint8_t>(1500, 0x5a));
  Packet c = p.clone();
  EXPECT_EQ(c.bytes().data(), p.bytes().data());  // refcount bump, no copy
  c.mutable_bytes()[0] = 0x11;
  EXPECT_NE(c.bytes().data(), p.bytes().data());  // CoW detached
  EXPECT_EQ(p.bytes()[0], 0x5a);
}

// The state-store regression: a clone truncated to a header stub must keep
// exactly the retained prefix, and the donor packet must stay bit-identical
// through the clone, the truncate, and a later mutation of the stub.
TEST(Packet, TruncatedCloneKeepsPrefixAndDonorIntact) {
  std::vector<std::uint8_t> original(1500);
  for (std::size_t i = 0; i < original.size(); ++i) {
    original[i] = static_cast<std::uint8_t>(i * 31 + 7);
  }
  Packet p(original);

  Packet stub = p.clone();
  stub.truncate(64);
  ASSERT_EQ(stub.size(), 64u);
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_EQ(stub.bytes()[i], original[i]) << "stub byte " << i;
  }

  stub.mutable_bytes()[0] ^= 0xff;
  ASSERT_EQ(p.size(), original.size());
  EXPECT_TRUE(std::equal(p.bytes().begin(), p.bytes().end(),
                         original.begin()));
}

// Truncating uniquely-owned storage must materialize the prefix rather
// than resize in place, so a 64 B stub does not pin the 1500 B buffer.
TEST(Packet, TruncateOnUniqueStorageMaterializes) {
  Packet p(std::vector<std::uint8_t>(1500, 0x5a));
  const std::uint8_t* before = p.bytes().data();
  p.truncate(64);
  EXPECT_EQ(p.size(), 64u);
  EXPECT_NE(p.bytes().data(), before);  // fresh, right-sized allocation
}

TEST(Packet, LazySliceDetachesOnMutationAfterDonorDies) {
  Packet stub;
  {
    Packet donor(std::vector<std::uint8_t>{1, 2, 3, 4, 5, 6, 7, 8});
    stub = donor.clone();
    stub.truncate(4);  // lazy slice while donor is alive
  }
  const auto view = stub.mutable_bytes();  // detach: copies only [0, 4)
  ASSERT_EQ(view.size(), 4u);
  EXPECT_EQ(view[3], 4);
  EXPECT_EQ(stub.bytes().size(), 4u);
}

Packet numbered_packet(std::size_t n) {
  std::vector<std::uint8_t> bytes(n);
  for (std::size_t i = 0; i < n; ++i) bytes[i] = static_cast<std::uint8_t>(i);
  return Packet(std::move(bytes));
}

TEST(Packet, SliceOfASliceViewsTheRightBytesWithoutCopying) {
  const Packet p = numbered_packet(200);
  const Packet outer = p.slice(50, 100);  // bytes 50..149
  const Packet inner = outer.slice(10, 20);  // bytes 60..79
  ASSERT_EQ(inner.size(), 20u);
  EXPECT_EQ(inner.bytes()[0], 60);
  EXPECT_EQ(inner.bytes()[19], 79);
  EXPECT_EQ(inner.bytes().data(), p.bytes().data() + 60);  // same storage
  EXPECT_THROW((void)outer.slice(90, 11), BufferError);
  EXPECT_EQ(outer.slice(100, 0).size(), 0u);
}

TEST(Packet, SliceGetsFreshMetadata) {
  Packet p = numbered_packet(100);
  p.meta().id = 7;
  p.meta().priority = 3;
  const Packet s = p.slice(10, 10);
  EXPECT_EQ(s.meta().id, 0u);
  EXPECT_EQ(s.meta().priority, 0);
}

TEST(Packet, MutatingASliceDetachesOnlyTheSlice) {
  const Packet p = numbered_packet(200);
  Packet s = p.slice(50, 10);
  const auto view = s.mutable_bytes();
  ASSERT_EQ(view.size(), 10u);
  EXPECT_NE(view.data(), p.bytes().data() + 50);  // detached
  EXPECT_EQ(view[0], 50);
  EXPECT_EQ(view[9], 59);
  view[0] = 0xee;
  EXPECT_EQ(p.bytes()[50], 50);  // the donor never sees the write
  EXPECT_EQ(s.bytes()[0], 0xee);
}

TEST(Packet, SliceDetachesOnMutationEvenOnceUnshared) {
  // A slice outliving its donor is narrower than the storage it pins:
  // mutation re-allocates it at its own size, like a lazy truncate.
  Packet s;
  const std::uint8_t* shared = nullptr;
  {
    const Packet donor = numbered_packet(1500);
    s = donor.slice(100, 8);
    shared = s.bytes().data();
  }
  EXPECT_NE(s.mutable_bytes().data(), shared);
  EXPECT_EQ(s.bytes()[7], 107);
}

TEST(Packet, TruncateAndCloneOfASlice) {
  const Packet p = numbered_packet(200);
  Packet s = p.slice(20, 50);
  Packet c = s.clone();
  EXPECT_EQ(c.bytes().data(), s.bytes().data());  // refcount bump
  c.truncate(5);  // shared with p and s: lazy
  ASSERT_EQ(c.size(), 5u);
  EXPECT_EQ(c.bytes().data(), s.bytes().data());
  EXPECT_EQ(c.bytes()[4], 24);
  EXPECT_EQ(s.size(), 50u);  // the clone's truncate leaves s whole
  c.mutable_bytes()[0] = 0xaa;
  EXPECT_EQ(s.bytes()[0], 20);
  EXPECT_EQ(p.bytes()[20], 20);
}

TEST(Packet, RewriteDscpKeepsChecksumValid) {
  Packet p = build_udp_packet(MacAddress::from_index(1),
                              MacAddress::from_index(2),
                              Ipv4Address(10, 0, 0, 1),
                              Ipv4Address(10, 0, 0, 2), 1, 2, {});
  ASSERT_TRUE(rewrite_dscp(p, 46));
  const ParsedPacket parsed = parse_packet(p);  // throws on bad checksum
  ASSERT_TRUE(parsed.ipv4.has_value());
  EXPECT_EQ(parsed.ipv4->dscp, 46);
}

TEST(Packet, RewriteDstIpKeepsChecksumValid) {
  Packet p = build_udp_packet(MacAddress::from_index(1),
                              MacAddress::from_index(2),
                              Ipv4Address(10, 0, 0, 1),
                              Ipv4Address(10, 0, 0, 2), 1, 2, {});
  ASSERT_TRUE(rewrite_dst_ip(p, Ipv4Address(192, 168, 9, 9)));
  const ParsedPacket parsed = parse_packet(p);
  EXPECT_EQ(parsed.ipv4->dst, Ipv4Address(192, 168, 9, 9));
}

TEST(Packet, RewriteRejectsNonIpv4) {
  Packet p(std::vector<std::uint8_t>(60, 0));
  EXPECT_FALSE(rewrite_dscp(p, 1));
  EXPECT_FALSE(rewrite_dst_ip(p, Ipv4Address(1, 1, 1, 1)));
}

TEST(Flow, ExtractFiveTuple) {
  Packet p = build_udp_packet(MacAddress::from_index(1),
                              MacAddress::from_index(2),
                              Ipv4Address(10, 0, 0, 1),
                              Ipv4Address(10, 0, 0, 2), 1111, 2222, {});
  const auto tuple = extract_five_tuple(p);
  ASSERT_TRUE(tuple.has_value());
  EXPECT_EQ(tuple->src_ip, Ipv4Address(10, 0, 0, 1));
  EXPECT_EQ(tuple->dst_ip, Ipv4Address(10, 0, 0, 2));
  EXPECT_EQ(tuple->src_port, 1111);
  EXPECT_EQ(tuple->dst_port, 2222);
  EXPECT_EQ(tuple->protocol, 17);
}

TEST(Flow, NonIpv4HasNoTuple) {
  Packet p(std::vector<std::uint8_t>(60, 0));
  EXPECT_FALSE(extract_five_tuple(p).has_value());
}

TEST(Flow, HashIsStableAndKeyed) {
  FiveTuple t{Ipv4Address(1, 2, 3, 4), Ipv4Address(5, 6, 7, 8), 9, 10, 17};
  EXPECT_EQ(flow_hash(t), flow_hash(t));
  EXPECT_NE(flow_hash(t, 1), flow_hash(t, 2));
  FiveTuple u = t;
  u.src_port = 11;
  EXPECT_NE(flow_hash(t), flow_hash(u));
}

TEST(Flow, PacketHashMatchesTupleHash) {
  // packet_flow_hash folds straight off the frame bytes; it must agree
  // with extract-then-hash for every seed, or per-flow INT accounting
  // would key differently than the rest of the repo.
  Packet p = build_udp_packet(MacAddress::from_index(1),
                              MacAddress::from_index(2),
                              Ipv4Address(10, 0, 0, 1),
                              Ipv4Address(10, 0, 0, 2), 1111, 2222, {});
  const auto tuple = extract_five_tuple(p);
  ASSERT_TRUE(tuple.has_value());
  const auto direct = packet_flow_hash(p);
  ASSERT_TRUE(direct.has_value());
  EXPECT_EQ(*direct, flow_hash(*tuple));
  EXPECT_EQ(packet_flow_hash(p, 99).value(), flow_hash(*tuple, 99));

  // Non-IPv4 frames are unclassifiable either way.
  Packet raw(std::vector<std::uint8_t>(60, 0));
  EXPECT_FALSE(packet_flow_hash(raw).has_value());
}

TEST(Pcap, WritesHeaderAndRecords) {
  std::ostringstream out;
  PcapWriter pcap(out);
  Packet p = build_udp_packet(MacAddress::from_index(1),
                              MacAddress::from_index(2),
                              Ipv4Address(10, 0, 0, 1),
                              Ipv4Address(10, 0, 0, 2), 1, 2,
                              std::vector<std::uint8_t>(10, 0xaa));
  pcap.write(p, sim::microseconds(1500000));  // 1.5 s
  const std::string s = out.str();
  // 24-byte file header + 16-byte record header + packet bytes.
  EXPECT_EQ(s.size(), 24 + 16 + p.size());
  EXPECT_EQ(static_cast<unsigned char>(s[0]), 0xd4);  // magic, LE
  EXPECT_EQ(pcap.packets_written(), 1u);
  // ts_sec == 1 at offset 24.
  EXPECT_EQ(static_cast<unsigned char>(s[24]), 1);
}

TEST(Pcap, SnaplenTruncates) {
  std::ostringstream out;
  PcapWriter pcap(out, 32);
  Packet p(std::vector<std::uint8_t>(100, 1));
  pcap.write(p, 0);
  EXPECT_EQ(out.str().size(), 24u + 16u + 32u);
}

}  // namespace
}  // namespace xmem::net
