// Packet: copy-on-write wire bytes plus simulation metadata.
//
// Packets carry real serialized headers end to end; every component that
// wants header fields parses the bytes (and re-serializes if it mutates
// them). That discipline is what lets the benches measure true on-wire
// overheads instead of assumed ones.
//
// Storage is copy-on-write (ByteSlice): clone() (the switch clone
// primitive) is a refcount bump, truncate() on a clone is a lazy O(1)
// slice, slice() views any sub-range in O(1), and any mutation goes
// through ensure_unique(), which detaches by copying only the viewed
// range. The paper's state-store clone-and-truncate path — executed for
// every tracked packet — therefore costs two pointer copies instead of a
// 1500-byte allocation, and a RoCE payload parsed out of a frame is a
// view of the frame's own bytes.
#pragma once

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "net/ethernet.hpp"
#include "net/int_stack.hpp"
#include "net/ipv4.hpp"
#include "net/udp.hpp"
#include "sim/time.hpp"

namespace xmem::net {

struct PacketMeta {
  std::uint64_t id = 0;        ///< Unique per simulation, for tracing.
  sim::Time created = 0;       ///< When the packet entered the simulation.
  sim::Time enqueued = 0;      ///< Last time it was put on a queue.
  int ingress_port = -1;       ///< Port index it arrived on (per node).
  std::uint8_t priority = 0;   ///< Traffic class for queueing/PFC.
  std::uint64_t app_seq = 0;   ///< Application sequence number, if any.
  bool from_remote_buffer = false;  ///< Reinjected by the buffer primitive.
  IntStackHandle int_stack;    ///< INT hop records; null unless tagged.
};

/// A copy-on-write view of a byte range in shared storage. Copies share
/// the storage (a refcount bump) and slice() narrows the view in O(1), so
/// passing bytes along never copies them. The view is read-only until
/// mutable_bytes(), which first detaches — copying only the viewed range —
/// whenever another view shares the storage or this view is narrower
/// than it.
class ByteSlice {
 public:
  ByteSlice() = default;
  /// Adopts the vector's buffer as the storage: no copy.
  // NOLINTNEXTLINE(google-explicit-constructor)
  ByteSlice(std::vector<std::uint8_t> bytes)
      : size_(checked_size(bytes.size())) {
    if (bytes.empty()) return;
    auto owner = std::make_shared<std::vector<std::uint8_t>>(std::move(bytes));
    data_ = std::shared_ptr<std::uint8_t[]>(owner, owner->data());
  }
  ByteSlice(std::initializer_list<std::uint8_t> bytes)
      : ByteSlice(copy_of(bytes)) {}

  /// Fresh, uniquely owned storage of `size` bytes left uninitialized, in
  /// one allocation: the caller writes every byte (frame builders).
  [[nodiscard]] static ByteSlice allocate(std::size_t size) {
    ByteSlice out;
    out.size_ = checked_size(size);
    if (size > 0) {
      out.data_ = std::make_shared_for_overwrite<std::uint8_t[]>(size);
    }
    return out;
  }
  /// Fresh storage holding a copy of `bytes`.
  [[nodiscard]] static ByteSlice copy_of(std::span<const std::uint8_t> bytes) {
    ByteSlice out = allocate(bytes.size());
    std::copy(bytes.begin(), bytes.end(), out.raw());
    return out;
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] const std::uint8_t* data() const { return raw(); }
  [[nodiscard]] const std::uint8_t* begin() const { return raw(); }
  [[nodiscard]] const std::uint8_t* end() const { return raw() + size_; }
  [[nodiscard]] std::uint8_t operator[](std::size_t i) const {
    return raw()[i];
  }
  [[nodiscard]] std::span<const std::uint8_t> bytes() const {
    return {raw(), size_};
  }

  /// View of [offset, offset + len) sharing this storage. Throws
  /// BufferError if the range runs past the end of this view.
  [[nodiscard]] ByteSlice slice(std::size_t offset, std::size_t len) const {
    if (offset > size_ || len > size_ - offset) {
      throw BufferError("ByteSlice: slice past end of view");
    }
    ByteSlice out = *this;
    // offset_ + offset < 2^31: both lie inside one checked_size() buffer.
    out.offset_ = (offset_ + static_cast<std::uint32_t>(offset)) & 0x7fffffffu;
    out.size_ = static_cast<std::uint32_t>(len);
    out.narrowed_ = narrowed_ || len < size_;
    return out;
  }

  /// Writable view. Detaches from any sharers first, so a mutation never
  /// bleeds into another view of the same storage.
  [[nodiscard]] std::span<std::uint8_t> mutable_bytes() {
    ensure_unique();
    return {raw(), size_};
  }

  /// Sole ownership of exactly the viewed bytes, copying only them when
  /// the storage is shared or wider than this view. Idempotent.
  void ensure_unique() {
    if (data_ && (data_.use_count() > 1 || narrowed_)) *this = copy_of(bytes());
  }

  /// Drop all bytes past `len`. Lazy O(1) while the storage is shared;
  /// uniquely owned storage is re-allocated at the retained size so a
  /// short stub does not pin a large buffer.
  void truncate(std::size_t len) {
    if (len >= size_) return;
    if (data_.use_count() > 1) {
      size_ = static_cast<std::uint32_t>(len);
      narrowed_ = true;
    } else {
      *this = copy_of(bytes().first(len));
    }
  }

  /// Replace the contents with `n` copies of `value`.
  void assign(std::size_t n, std::uint8_t value) {
    *this = allocate(n);
    std::fill_n(raw(), n, value);
  }

  friend bool operator==(const ByteSlice& a, const ByteSlice& b) {
    return std::ranges::equal(a.bytes(), b.bytes());
  }

 private:
  static std::uint32_t checked_size(std::size_t n) {
    if (n >= (std::size_t{1} << 31)) {
      throw BufferError("ByteSlice: buffer larger than 2 GiB");
    }
    return static_cast<std::uint32_t>(n);
  }
  [[nodiscard]] std::uint8_t* raw() const {
    return data_ ? data_.get() + offset_ : nullptr;
  }

  std::shared_ptr<std::uint8_t[]> data_;
  std::uint32_t offset_ : 31 = 0;
  /// Set once the view is narrower than its storage (slice/lazy
  /// truncate): mutation then detaches even when nothing shares it.
  std::uint32_t narrowed_ : 1 = 0;
  std::uint32_t size_ = 0;
};

class Packet {
 public:
  Packet() = default;
  explicit Packet(std::vector<std::uint8_t> bytes) : bytes_(std::move(bytes)) {}
  /// A packet over existing bytes, with fresh metadata.
  explicit Packet(ByteSlice bytes) : bytes_(std::move(bytes)) {}

  [[nodiscard]] std::size_t size() const { return bytes_.size(); }

  [[nodiscard]] std::span<const std::uint8_t> bytes() const {
    return bytes_.bytes();
  }

  /// The bytes as a shareable slice (what a parser hands out as a view).
  [[nodiscard]] const ByteSlice& storage() const { return bytes_; }

  /// Writable view of the bytes. Detaches from any clones first, so a
  /// mutation never bleeds into another packet sharing the storage. A
  /// span (not the buffer) on purpose: resizing the storage behind the
  /// packet's back would desync the logical size.
  [[nodiscard]] std::span<std::uint8_t> mutable_bytes() {
    return bytes_.mutable_bytes();
  }

  [[nodiscard]] PacketMeta& meta() { return meta_; }
  [[nodiscard]] const PacketMeta& meta() const { return meta_; }

  /// Link occupancy of this packet (incl. FCS, padding, preamble, IFG).
  [[nodiscard]] std::int64_t wire_size() const { return wire_bytes(size()); }

  /// The switch clone operation: O(1), shares the byte storage with this
  /// packet until either side mutates.
  [[nodiscard]] Packet clone() const { return *this; }

  /// A new packet (fresh metadata) over bytes [offset, offset + len) of
  /// this one, sharing the storage: O(1). Throws BufferError past the end.
  [[nodiscard]] Packet slice(std::size_t offset, std::size_t len) const {
    return Packet(bytes_.slice(offset, len));
  }

  /// Drop all bytes past `len` (the switch truncate operation). On a
  /// packet sharing storage with clones this is a lazy O(1) slice; on
  /// uniquely-owned storage it materializes the retained prefix so a
  /// 64-byte stub does not pin the original frame's allocation.
  void truncate(std::size_t len) { bytes_.truncate(len); }

  /// Make this packet the sole owner of its bytes, copying only the
  /// viewed range. Idempotent; called by mutable_bytes().
  void ensure_unique() { bytes_.ensure_unique(); }

 private:
  ByteSlice bytes_;
  PacketMeta meta_;
};

// Link::ship schedules a closure holding a 16-byte link end and a Packet;
// sim::InlineFunction stores it without a heap box only while it fits in
// 96 bytes. Growing Packet would heap-allocate every link event.
static_assert(sizeof(Packet) == 80, "net::Packet must stay 80 bytes");

/// Parsed view of the standard header stack. Parsing stops at the first
/// layer that is absent; deeper optionals stay empty.
struct ParsedPacket {
  EthernetHeader eth;
  std::optional<Ipv4Header> ipv4;
  std::optional<UdpHeader> udp;
  std::size_t l4_payload_offset = 0;  ///< Offset of bytes after UDP header.

  [[nodiscard]] bool is_roce_v2() const {
    return udp.has_value() && udp->dst_port == kRoceV2Port;
  }
};

/// Parse Ethernet (+IPv4 +UDP when present). Throws BufferError only if a
/// header that claims to be present is truncated.
[[nodiscard]] ParsedPacket parse_packet(const Packet& p);

/// Build a full Ethernet/IPv4/UDP frame around `payload`.
/// Lengths and checksums are computed; `dscp` seeds the IP ToS field.
[[nodiscard]] Packet build_udp_packet(const MacAddress& src_mac,
                                      const MacAddress& dst_mac,
                                      const Ipv4Address& src_ip,
                                      const Ipv4Address& dst_ip,
                                      std::uint16_t src_port,
                                      std::uint16_t dst_port,
                                      std::span<const std::uint8_t> payload,
                                      std::uint8_t dscp = 0);

/// Rewrite the DSCP field of an IPv4 packet in place (refreshes the IP
/// checksum). Returns false if the packet is not IPv4.
bool rewrite_dscp(Packet& p, std::uint8_t dscp);

/// Set the ECN codepoint of an IPv4 packet in place (refreshes the IP
/// checksum). Returns false if the packet is not IPv4.
bool set_ecn(Packet& p, Ecn ecn);

/// Rewrite the IPv4 destination address in place (refreshes the checksum).
/// Returns false if the packet is not IPv4.
bool rewrite_dst_ip(Packet& p, const Ipv4Address& dst);

}  // namespace xmem::net
