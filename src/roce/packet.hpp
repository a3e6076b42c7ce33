// RoCE message <-> Ethernet frame conversion.
//
// A RoceMessage is the logical content of one RoCE packet: BTH, whichever
// extension headers the opcode requires, and an (unpadded) payload.
// build_roce_packet() produces the byte-exact frame — Ethernet + (IPv4 +
// UDP | GRH) + transport headers + padded payload + ICRC — in one
// allocation, copying the payload once; parse_roce_packet() reverses it,
// validating the ICRC, and copies nothing: the parsed payload is a
// copy-on-write slice of the frame's own bytes.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "net/ipv4.hpp"
#include "net/packet.hpp"
#include "roce/grh.hpp"
#include "roce/headers.hpp"
#include "roce/opcodes.hpp"

namespace xmem::roce {

/// Which wire encapsulation carries the IB transport headers.
enum class RoceVersion {
  kV2,  // Ethernet / IPv4 / UDP(4791) / BTH ...   (40 B of routing+transport)
  kV1,  // Ethernet / GRH / BTH ...                (52 B)
};

/// L2/L3 identity of one end of an RDMA channel.
struct RoceEndpoint {
  net::MacAddress mac;
  net::Ipv4Address ip;
  std::uint16_t udp_port = 0;  // requester's source port (flow entropy)
};

struct RoceMessage {
  Bth bth;
  std::optional<Reth> reth;
  std::optional<AtomicEth> atomic_eth;
  std::optional<Aeth> aeth;
  std::optional<AtomicAckEth> atomic_ack;
  std::optional<CnpEth> cnp;
  /// Unpadded payload. A parsed message's payload is a view into the
  /// frame it came from, valid for as long as the message lives.
  net::ByteSlice payload;
  /// ECN codepoint of the enclosing IP header. build_roce_packet() emits
  /// it (RoCEv2 frames default to ECT(0), so switch queues may CE-mark
  /// them); parse_roce_packet() recovers it, which is how a responder
  /// sees congestion marks the fabric applied in transit. RoCEv1 has no
  /// IP header: the field stays at its default there.
  net::Ecn ecn = net::Ecn::kEct0;

  [[nodiscard]] Opcode opcode() const { return bth.opcode; }
};

/// Serialize `msg` into a ready-to-transmit frame. Fills in lengths, pad
/// count and ICRC; validates that the extension headers present match the
/// opcode (throws std::invalid_argument otherwise).
[[nodiscard]] net::Packet build_roce_packet(const RoceEndpoint& src,
                                            const RoceEndpoint& dst,
                                            const RoceMessage& msg,
                                            RoceVersion version =
                                                RoceVersion::kV2);

/// As above, with the payload gathered from `payload`'s pieces back to
/// back instead of `headers.payload` (which must be empty; throws
/// std::invalid_argument otherwise). A requester posting from its own
/// buffers, or a responder answering from DRAM, builds the frame straight
/// from the source bytes: the frame is the payload's only copy.
[[nodiscard]] net::Packet build_roce_packet(
    const RoceEndpoint& src, const RoceEndpoint& dst,
    const RoceMessage& headers,
    std::span<const std::span<const std::uint8_t>> payload,
    RoceVersion version = RoceVersion::kV2);

/// Parse a frame. Returns nullopt if the frame is not RoCE at all (wrong
/// EtherType / UDP port) or if the ICRC does not verify (treated as wire
/// corruption: real RNICs silently drop such packets).
[[nodiscard]] std::optional<RoceMessage> parse_roce_packet(
    const net::Packet& p);

/// As above for a frame whose Ethernet/IPv4/UDP headers were already
/// parsed into `headers` (IPv4 checksum included): only the transport
/// headers are parsed and the ICRC verified. nullopt unless `headers`
/// is RoCEv2.
[[nodiscard]] std::optional<RoceMessage> parse_roce_packet(
    const net::Packet& p, const net::ParsedPacket& headers);

/// On-wire header+trailer overhead for one request of the given opcode,
/// excluding Ethernet framing: routing/transport headers plus ICRC.
/// This is the paper's §4 arithmetic (40 B RoCEv2 / 52 B RoCEv1, plus
/// 16 B WRITE/READ or 28 B Fetch-and-Add, plus 4 B ICRC).
[[nodiscard]] std::size_t roce_overhead_bytes(Opcode op,
                                              RoceVersion version =
                                                  RoceVersion::kV2);

/// Exact ICRC over an already-built frame (without its trailing 4 ICRC
/// bytes). Exposed for tests. Throws std::invalid_argument if `frame` is
/// shorter than Ethernet + routing header (IPv4+UDP for v2, GRH for v1)
/// + BTH, the fixed headers whose mutable fields the ICRC masks.
[[nodiscard]] std::uint32_t compute_icrc(std::span<const std::uint8_t> frame,
                                         RoceVersion version);

}  // namespace xmem::roce
