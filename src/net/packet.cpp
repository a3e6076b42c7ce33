#include "net/packet.hpp"

#include "net/checksum.hpp"

namespace xmem::net {

ParsedPacket parse_packet(const Packet& p) {
  ParsedPacket out;
  ByteReader r(p.bytes());
  out.eth = EthernetHeader::parse(r);
  if (out.eth.type() != EtherType::kIpv4) return out;
  out.ipv4 = Ipv4Header::parse(r);
  if (out.ipv4->proto() != IpProto::kUdp) return out;
  out.udp = UdpHeader::parse(r);
  out.l4_payload_offset = r.position();
  return out;
}

Packet build_udp_packet(const MacAddress& src_mac, const MacAddress& dst_mac,
                        const Ipv4Address& src_ip, const Ipv4Address& dst_ip,
                        std::uint16_t src_port, std::uint16_t dst_port,
                        std::span<const std::uint8_t> payload,
                        std::uint8_t dscp) {
  ByteSlice buf = ByteSlice::allocate(kEthernetHeaderBytes + kIpv4HeaderBytes +
                                      kUdpHeaderBytes + payload.size());
  ByteWriter w(buf.mutable_bytes());

  EthernetHeader eth;
  eth.dst = dst_mac;
  eth.src = src_mac;
  eth.set_type(EtherType::kIpv4);
  eth.serialize(w);

  Ipv4Header ip;
  ip.dscp = dscp;
  ip.total_length = static_cast<std::uint16_t>(
      kIpv4HeaderBytes + kUdpHeaderBytes + payload.size());
  ip.src = src_ip;
  ip.dst = dst_ip;
  ip.serialize(w);

  UdpHeader udp;
  udp.src_port = src_port;
  udp.dst_port = dst_port;
  udp.length = static_cast<std::uint16_t>(kUdpHeaderBytes + payload.size());
  udp.serialize(w);

  w.bytes(payload);
  return Packet(std::move(buf));
}

namespace {

/// Recompute and patch the IPv4 header checksum at `ip_offset`.
void refresh_ip_checksum(std::span<std::uint8_t> bytes,
                         std::size_t ip_offset) {
  bytes[ip_offset + 10] = 0;
  bytes[ip_offset + 11] = 0;
  const std::uint16_t sum = internet_checksum(
      std::span<const std::uint8_t>(bytes).subspan(ip_offset,
                                                   kIpv4HeaderBytes));
  bytes[ip_offset + 10] = static_cast<std::uint8_t>(sum >> 8);
  bytes[ip_offset + 11] = static_cast<std::uint8_t>(sum);
}

bool is_ipv4_frame(const Packet& p) {
  if (p.size() < kEthernetHeaderBytes + kIpv4HeaderBytes) return false;
  const auto b = p.bytes();
  return b[12] == 0x08 && b[13] == 0x00;
}

}  // namespace

bool rewrite_dscp(Packet& p, std::uint8_t dscp) {
  if (!is_ipv4_frame(p)) return false;
  const auto bytes = p.mutable_bytes();
  const std::size_t ip = kEthernetHeaderBytes;
  bytes[ip + 1] = static_cast<std::uint8_t>((dscp << 2) |
                                            (bytes[ip + 1] & 0x3));
  refresh_ip_checksum(bytes, ip);
  return true;
}

bool set_ecn(Packet& p, Ecn ecn) {
  if (!is_ipv4_frame(p)) return false;
  const auto bytes = p.mutable_bytes();
  const std::size_t ip = kEthernetHeaderBytes;
  bytes[ip + 1] = static_cast<std::uint8_t>(
      (bytes[ip + 1] & ~0x3) | static_cast<std::uint8_t>(ecn));
  refresh_ip_checksum(bytes, ip);
  return true;
}

bool rewrite_dst_ip(Packet& p, const Ipv4Address& dst) {
  if (!is_ipv4_frame(p)) return false;
  const auto bytes = p.mutable_bytes();
  const std::size_t ip = kEthernetHeaderBytes;
  const std::uint32_t v = dst.value();
  bytes[ip + 16] = static_cast<std::uint8_t>(v >> 24);
  bytes[ip + 17] = static_cast<std::uint8_t>(v >> 16);
  bytes[ip + 18] = static_cast<std::uint8_t>(v >> 8);
  bytes[ip + 19] = static_cast<std::uint8_t>(v);
  refresh_ip_checksum(bytes, ip);
  return true;
}

}  // namespace xmem::net
