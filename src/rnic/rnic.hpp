// RNIC model: a RoCEv2 responder (and response dispatcher) with the rate
// limits and queueing behaviour of CX-3-class 40 GbE hardware.
//
// One-sided requests (WRITE / READ / Fetch-and-Add) are executed entirely
// here, against registered memory regions, with zero involvement of the
// owning host's CPU — the property the paper's architecture rests on.
//
// The rate model: requests enter a bounded RX queue and are served one at
// a time; service time is a per-opcode overhead plus a per-byte DMA cost.
// Overflowing the RX queue drops the request silently, reproducing the
// paper's "RDMA requests were occasionally dropped at the NIC" behaviour
// past the NIC's message-rate cap.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>

#include "net/packet.hpp"
#include "rnic/memory.hpp"
#include "rnic/queue_pair.hpp"
#include "roce/packet.hpp"
#include "sim/simulator.hpp"
#include "sim/units.hpp"
#include "telemetry/metrics.hpp"

namespace xmem::rnic {

/// Performance envelope of the simulated NIC. Defaults are calibrated in
/// DESIGN.md §5 so the paper's §5 throughput numbers hold in shape:
/// 1500 B-granular WRITE ≈ 34 Gb/s, chained READ ≈ 37.4 Gb/s (link
/// limited), Fetch-and-Add ≈ 2.4 Mops (≈ 2.1 Gb/s of request traffic).
struct NicProfile {
  std::size_t rx_queue_depth = 128;
  // Calibration (DESIGN.md §5): with the 80 Gb/s DMA engine,
  //  - WRITE service(1504 B entry) = 202 + 188 ns  -> ~2.84 Mops -> the
  //    34.1 Gb/s entry-granular store ceiling of §5,
  //  - READ service(2048 B entry)  = 110 + 205 ns  -> above the 40 GbE
  //    line rate, so chained loads are link-limited at ~37.4 Gb/s,
  //  - atomic service              = 420.8 ns      -> ~2.38 Mops -> the
  //    ~2.1 Gb/s Fetch-and-Add request stream of Fig. 3b.
  sim::Time write_overhead = sim::nanoseconds(202);
  sim::Time read_overhead = sim::nanoseconds(110);
  sim::Time atomic_overhead = sim::nanoseconds(420);
  sim::Bandwidth dma_bandwidth = sim::gbps(80);
  std::size_t path_mtu = 4096;
  /// Congestion signaling (DCQCN responder side): a CE-marked request
  /// triggers a CNP toward its requester, rate-limited per QP to one
  /// CNP per interval (the DCQCN notification period). 0 sends a CNP
  /// for every marked arrival.
  sim::Time cnp_min_interval = sim::microseconds(50);
};

class Rnic {
 public:
  using TransmitFn = std::function<void(net::Packet&&)>;
  /// Requester-role callback: invoked for every response arriving on a
  /// given QPN (ACK, NAK, READ response, atomic ACK).
  using ResponseHandler = std::function<void(const roce::RoceMessage&)>;

  struct Stats {
    std::uint64_t requests_received = 0;
    std::uint64_t requests_dropped_overflow = 0;
    std::uint64_t dead_dropped = 0;  // frames discarded while !alive()
    std::uint64_t corrupt_dropped = 0;
    std::uint64_t unknown_qp_dropped = 0;
    std::uint64_t writes = 0;
    std::uint64_t reads = 0;
    std::uint64_t atomics = 0;
    std::uint64_t acks_sent = 0;
    std::uint64_t naks_sent = 0;
    // naks_sent broken down by cause (the AckSyndrome of the NAK).
    std::uint64_t naks_rnr = 0;
    std::uint64_t naks_sequence_error = 0;
    std::uint64_t naks_invalid_request = 0;
    std::uint64_t naks_remote_access_error = 0;
    std::uint64_t naks_remote_op_error = 0;
    std::uint64_t responses_dispatched = 0;
    std::uint64_t restarts = 0;
    std::int64_t bytes_written = 0;
    std::int64_t bytes_read = 0;
    /// Congestion signaling: requests that arrived CE-marked, and the
    /// CNPs generated for them (after the per-QP rate limit).
    std::uint64_t ce_marked_rx = 0;
    std::uint64_t cnps_sent = 0;
  };

  Rnic(sim::Simulator& simulator, roce::RoceEndpoint self, NicProfile profile,
       TransmitFn transmit);

  [[nodiscard]] const roce::RoceEndpoint& endpoint() const { return self_; }
  [[nodiscard]] const NicProfile& profile() const { return profile_; }
  [[nodiscard]] MemoryManager& memory() { return memory_; }
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// --- Control plane (used only at initialization) -------------------
  QueuePair& create_qp();
  /// Bind a local QP to its peer and arm the responder.
  void connect_qp(std::uint32_t qpn, const roce::RoceEndpoint& remote,
                  std::uint32_t remote_qpn, roce::Psn expected_psn);
  [[nodiscard]] QueuePair* find_qp(std::uint32_t qpn);

  /// Requester role: deliver responses addressed to `qpn` to `handler`.
  void set_response_handler(std::uint32_t qpn, ResponseHandler handler);

  /// Fault injection: a dead NIC silently eats every RoCE frame and
  /// answers nothing (the failure the sharding layer's failover is built
  /// to survive). Reviving it keeps QP and memory state — the model of a
  /// firmware hang or link flap rather than a power cycle.
  void set_alive(bool alive);
  [[nodiscard]] bool alive() const { return alive_; }

  /// Fault recovery: bring the NIC back as a *new epoch*, the model of a
  /// firmware reset or driver reload. All QPs and response handlers are
  /// destroyed, every registered rkey is invalidated (host DRAM itself
  /// survives — re-register to get a fresh rkey over the same bytes) and
  /// the NIC comes up alive with an empty RX queue. The control plane
  /// must reconnect: until it does, every stale request NAKs or drops.
  void restart();
  /// Incremented by each restart(); lets the control plane tell whether
  /// a channel config predates the current NIC incarnation.
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }

  /// --- Data plane -----------------------------------------------------
  /// Offer a received frame. Returns true if it was RoCE (consumed by the
  /// NIC); false means the frame is ordinary traffic for the host stack.
  [[nodiscard]] bool handle_frame(const net::Packet& frame);

  /// Emit a pre-built frame through the host port (used by the requester
  /// engine, which shares the NIC's wire).
  void transmit(net::Packet&& frame) { transmit_(std::move(frame)); }

  /// Register every Stats field (responder ops, per-cause NAKs, DMA byte
  /// counts) under `<prefix>/...` plus an rx-queue-depth gauge.
  void register_metrics(telemetry::MetricsRegistry& registry,
                        const std::string& prefix);

  /// Tag every responder-generated frame (ACK/NAK, READ response, atomic
  /// ACK) with an INT hop record covering the request's time in the NIC
  /// (ingress = RX-queue arrival, egress = response emission) and the RX
  /// queue occupancy in requests.
  void enable_int(std::uint16_t hop_id) {
    int_enabled_ = true;
    int_hop_id_ = hop_id;
  }
  void disable_int() { int_enabled_ = false; }
  [[nodiscard]] bool int_enabled() const { return int_enabled_; }

 private:
  void pump();
  void execute(const roce::RoceMessage& msg);
  [[nodiscard]] sim::Time service_time(const roce::RoceMessage& msg) const;

  void send_ack(QueuePair& qp, roce::Psn psn, roce::AckSyndrome syndrome,
                std::optional<std::uint64_t> atomic_original = std::nullopt);
  /// A CE-marked request for `qp` arrived: emit a CNP toward its
  /// requester unless one already left within cnp_min_interval.
  void note_ce_marked(QueuePair& qp);
  void send_read_response(QueuePair& qp, roce::Psn first_psn,
                          std::span<const std::uint8_t> data);

  void execute_duplicate_write_only(QueuePair& qp,
                                    const roce::RoceMessage& msg);
  void execute_write(QueuePair& qp, const roce::RoceMessage& msg);
  void execute_read(QueuePair& qp, const roce::RoceMessage& msg,
                    bool advance_sequence = true);
  void execute_atomic(QueuePair& qp, const roce::RoceMessage& msg);

  /// Stamp the INT hop record (when enabled) and hand the frame to the
  /// wire. Every responder-built frame leaves through here.
  void transmit_response(net::Packet&& frame);

  sim::Simulator* sim_;
  roce::RoceEndpoint self_;
  NicProfile profile_;
  TransmitFn transmit_;
  MemoryManager memory_;

  std::unordered_map<std::uint32_t, std::unique_ptr<QueuePair>> qps_;
  std::unordered_map<std::uint32_t, ResponseHandler> response_handlers_;
  std::uint32_t next_qpn_ = 0x11;

  /// A queued request plus its arrival time — the INT hop record reports
  /// queueing + service delay, not just service.
  struct RxItem {
    roce::RoceMessage msg;
    sim::Time arrival = 0;
  };

  std::deque<RxItem> rx_queue_;
  /// The request being served (valid while serving_). Held here rather
  /// than in the service event's closure, which would not fit inline.
  /// Not counted against rx_queue_depth, and survives set_alive(false)
  /// and restart(): the op completes as dead_dropped / unknown-QP.
  RxItem in_service_;
  bool serving_ = false;
  bool alive_ = true;
  std::uint64_t epoch_ = 0;
  bool int_enabled_ = false;
  std::uint16_t int_hop_id_ = 0;
  sim::Time int_ingress_ = 0;  ///< Arrival time of the request in service.
  Stats stats_;
};

}  // namespace xmem::rnic
