#include "roce/packet.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "net/checksum.hpp"

namespace xmem::roce {

namespace {

std::size_t extension_bytes(const RoceMessage& msg) {
  std::size_t n = 0;
  if (msg.reth) n += kRethBytes;
  if (msg.atomic_eth) n += kAtomicEthBytes;
  if (msg.aeth) n += kAethBytes;
  if (msg.atomic_ack) n += kAtomicAckEthBytes;
  if (msg.cnp) n += kCnpEthBytes;
  return n;
}

void check_headers_match_opcode(const RoceMessage& msg,
                                std::size_t payload_len) {
  const Opcode op = msg.opcode();
  if (has_reth(op) != msg.reth.has_value()) {
    throw std::invalid_argument("RoceMessage: RETH presence mismatch for " +
                                std::string(to_string(op)));
  }
  if (has_atomic_eth(op) != msg.atomic_eth.has_value()) {
    throw std::invalid_argument(
        "RoceMessage: AtomicETH presence mismatch for " +
        std::string(to_string(op)));
  }
  if (has_aeth(op) != msg.aeth.has_value()) {
    throw std::invalid_argument("RoceMessage: AETH presence mismatch for " +
                                std::string(to_string(op)));
  }
  if (has_atomic_ack_eth(op) != msg.atomic_ack.has_value()) {
    throw std::invalid_argument(
        "RoceMessage: AtomicAckETH presence mismatch for " +
        std::string(to_string(op)));
  }
  if (has_cnp_eth(op) != msg.cnp.has_value()) {
    throw std::invalid_argument("RoceMessage: CnpETH presence mismatch for " +
                                std::string(to_string(op)));
  }
  if (payload_len > 0 && !has_payload(op)) {
    throw std::invalid_argument("RoceMessage: opcode carries no payload: " +
                                std::string(to_string(op)));
  }
}

}  // namespace

std::uint32_t compute_icrc(std::span<const std::uint8_t> frame,
                           RoceVersion version) {
  // The CRC covers a masked pseudo-frame: 8 bytes of 0xFF in place of
  // deterministically varying routing fields, then the packet from the
  // routing header onwards (the L2 header is not covered) with the
  // mutable fields (ToS/TTL/IP checksum/UDP checksum for v2; TClass/hop
  // limit for v1; BTH resv8a) forced to ones. Only the fixed headers are
  // masked, so they are copied and masked on the stack; the rest of the
  // frame is hashed in place by chaining the CRC.
  const std::size_t routing =
      version == RoceVersion::kV2
          ? net::kIpv4HeaderBytes + net::kUdpHeaderBytes
          : kGrhBytes;
  const std::size_t masked = routing + kBthBytes;
  if (frame.size() < net::kEthernetHeaderBytes + masked) {
    throw std::invalid_argument(
        "compute_icrc: frame shorter than Ethernet + routing header + BTH");
  }
  constexpr std::size_t base = 8;  // routing header offset in `pseudo`
  std::array<std::uint8_t, base + kGrhBytes + kBthBytes> pseudo{};
  std::fill_n(pseudo.begin(), base, std::uint8_t{0xff});
  const auto headers = frame.subspan(net::kEthernetHeaderBytes, masked);
  std::copy(headers.begin(), headers.end(), pseudo.begin() + base);

  if (version == RoceVersion::kV2) {
    pseudo[base + 1] = 0xff;   // IPv4 ToS (DSCP+ECN)
    pseudo[base + 8] = 0xff;   // TTL
    pseudo[base + 10] = 0xff;  // header checksum
    pseudo[base + 11] = 0xff;
    pseudo[base + 20 + 6] = 0xff;  // UDP checksum
    pseudo[base + 20 + 7] = 0xff;
    pseudo[base + 28 + 4] = 0xff;  // BTH resv8a
  } else {
    // GRH: traffic class spans the low nibble of byte 0 and high nibble
    // of byte 1; hop limit is byte 7.
    pseudo[base + 0] |= 0x0f;
    pseudo[base + 1] |= 0xf0;
    pseudo[base + 7] = 0xff;
    pseudo[base + 40 + 4] = 0xff;  // BTH resv8a
  }
  const std::uint32_t head =
      net::crc32(std::span<const std::uint8_t>(pseudo).first(base + masked));
  return net::crc32(frame.subspan(net::kEthernetHeaderBytes + masked), head);
}

namespace {

/// The frame for `headers` (its payload ignored) carrying `payload`.
net::Packet build_frame(const RoceEndpoint& src, const RoceEndpoint& dst,
                        const RoceMessage& headers,
                        std::span<const std::span<const std::uint8_t>> payload,
                        RoceVersion version) {
  std::size_t payload_len = 0;
  for (const auto piece : payload) payload_len += piece.size();
  check_headers_match_opcode(headers, payload_len);

  const std::size_t pad = (4 - (payload_len % 4)) % 4;
  const std::size_t transport_bytes = kBthBytes + extension_bytes(headers) +
                                      payload_len + pad + kIcrcBytes;
  const std::size_t routing =
      version == RoceVersion::kV2
          ? net::kIpv4HeaderBytes + net::kUdpHeaderBytes
          : kGrhBytes;
  net::ByteSlice buf = net::ByteSlice::allocate(net::kEthernetHeaderBytes +
                                                routing + transport_bytes);
  const std::span<std::uint8_t> frame = buf.mutable_bytes();
  net::ByteWriter w(frame);

  net::EthernetHeader eth;
  eth.dst = dst.mac;
  eth.src = src.mac;
  eth.set_type(version == RoceVersion::kV2 ? net::EtherType::kIpv4
                                           : net::EtherType::kRoceV1);
  eth.serialize(w);

  if (version == RoceVersion::kV2) {
    net::Ipv4Header ip;
    ip.total_length = static_cast<std::uint16_t>(
        net::kIpv4HeaderBytes + net::kUdpHeaderBytes + transport_bytes);
    ip.protocol = static_cast<std::uint8_t>(net::IpProto::kUdp);
    ip.src = src.ip;
    ip.dst = dst.ip;
    ip.ecn = headers.ecn;  // defaults to ECT(0): RoCEv2 runs ECN-capable
    ip.serialize(w);

    net::UdpHeader udp;
    udp.src_port = src.udp_port;
    udp.dst_port = net::kRoceV2Port;
    udp.length =
        static_cast<std::uint16_t>(net::kUdpHeaderBytes + transport_bytes);
    udp.checksum = 0;  // RoCEv2 transmits UDP checksum zero
    udp.serialize(w);
  } else {
    Grh grh;
    grh.payload_length = static_cast<std::uint16_t>(transport_bytes);
    grh.sgid = Grh::gid_from_ipv4(src.ip.value());
    grh.dgid = Grh::gid_from_ipv4(dst.ip.value());
    grh.serialize(w);
  }

  Bth bth = headers.bth;
  bth.pad_count = static_cast<std::uint8_t>(pad);
  bth.serialize(w);
  if (headers.reth) headers.reth->serialize(w);
  if (headers.atomic_eth) headers.atomic_eth->serialize(w);
  if (headers.aeth) headers.aeth->serialize(w);
  if (headers.atomic_ack) headers.atomic_ack->serialize(w);
  if (headers.cnp) headers.cnp->serialize(w);
  for (const auto piece : payload) w.bytes(piece);
  w.zeros(pad);

  w.u32(compute_icrc(frame.first(w.size()), version));
  return net::Packet(std::move(buf));
}

/// Parse the transport headers starting at `offset` (just past the
/// routing header) and verify the ICRC over the whole frame.
std::optional<RoceMessage> parse_transport(const net::Packet& p,
                                           std::size_t offset,
                                           RoceVersion version,
                                           net::Ecn ecn) {
  try {
    net::ByteReader r(p.bytes());
    r.skip(offset);
    if (r.remaining() < kBthBytes + kIcrcBytes) return std::nullopt;

    // Validate ICRC before trusting anything else.
    const std::size_t icrc_offset = p.size() - kIcrcBytes;
    const std::uint32_t expected =
        compute_icrc(p.bytes().first(icrc_offset), version);
    net::ByteReader icrc_reader(p.bytes().subspan(icrc_offset));
    if (icrc_reader.u32() != expected) return std::nullopt;

    RoceMessage msg;
    msg.ecn = ecn;
    msg.bth = Bth::parse(r);
    const Opcode op = msg.bth.opcode;
    if (has_reth(op)) msg.reth = Reth::parse(r);
    if (has_atomic_eth(op)) msg.atomic_eth = AtomicEth::parse(r);
    if (has_aeth(op)) msg.aeth = Aeth::parse(r);
    if (has_atomic_ack_eth(op)) msg.atomic_ack = AtomicAckEth::parse(r);
    if (has_cnp_eth(op)) msg.cnp = CnpEth::parse(r);

    const std::size_t tail = kIcrcBytes + msg.bth.pad_count;
    if (r.remaining() < tail) return std::nullopt;
    const std::size_t payload_len = r.remaining() - tail;
    if (payload_len > 0 && !has_payload(op)) return std::nullopt;
    msg.payload = p.storage().slice(r.position(), payload_len);
    return msg;
  } catch (const net::BufferError&) {
    return std::nullopt;  // malformed: treated as line noise and dropped
  }
}

}  // namespace

net::Packet build_roce_packet(const RoceEndpoint& src, const RoceEndpoint& dst,
                              const RoceMessage& msg, RoceVersion version) {
  const std::span<const std::uint8_t> payload = msg.payload.bytes();
  return build_frame(src, dst, msg, {&payload, 1}, version);
}

net::Packet build_roce_packet(
    const RoceEndpoint& src, const RoceEndpoint& dst,
    const RoceMessage& headers,
    std::span<const std::span<const std::uint8_t>> payload,
    RoceVersion version) {
  if (!headers.payload.empty()) {
    throw std::invalid_argument(
        "build_roce_packet: gathered payload beside a message payload");
  }
  return build_frame(src, dst, headers, payload, version);
}

std::optional<RoceMessage> parse_roce_packet(const net::Packet& p) {
  try {
    net::ByteReader r(p.bytes());
    const auto eth = net::EthernetHeader::parse(r);
    if (eth.type() == net::EtherType::kIpv4) {
      const auto ip = net::Ipv4Header::parse(r);
      if (ip.proto() != net::IpProto::kUdp) return std::nullopt;
      const auto udp = net::UdpHeader::parse(r);
      if (udp.dst_port != net::kRoceV2Port) return std::nullopt;
      return parse_transport(p, r.position(), RoceVersion::kV2, ip.ecn);
    }
    if (eth.type() == net::EtherType::kRoceV1) {
      Grh::parse(r);
      return parse_transport(p, r.position(), RoceVersion::kV1,
                             net::Ecn::kEct0);
    }
    return std::nullopt;
  } catch (const net::BufferError&) {
    return std::nullopt;  // malformed: treated as line noise and dropped
  }
}

std::optional<RoceMessage> parse_roce_packet(const net::Packet& p,
                                             const net::ParsedPacket& headers) {
  if (!headers.is_roce_v2()) return std::nullopt;
  return parse_transport(p, headers.l4_payload_offset, RoceVersion::kV2,
                         headers.ipv4->ecn);
}

std::size_t roce_overhead_bytes(Opcode op, RoceVersion version) {
  std::size_t n = (version == RoceVersion::kV2)
                      ? net::kIpv4HeaderBytes + net::kUdpHeaderBytes
                      : kGrhBytes;
  n += kBthBytes;
  if (has_reth(op)) n += kRethBytes;
  if (has_atomic_eth(op)) n += kAtomicEthBytes;
  if (has_aeth(op)) n += kAethBytes;
  if (has_atomic_ack_eth(op)) n += kAtomicAckEthBytes;
  if (has_cnp_eth(op)) n += kCnpEthBytes;
  n += kIcrcBytes;
  return n;
}

}  // namespace xmem::roce
