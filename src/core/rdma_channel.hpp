// The data-plane RDMA channel: the switch-side machinery every primitive
// shares. It is the paper's key idea made concrete — the switch itself
// crafts RoCEv2 request packets (adding BTH/RETH/AtomicETH headers and
// ICRC on top of original or cloned packets) and injects them toward the
// memory server's RNIC, maintaining the small amount of connection state
// (next PSN) a requester needs, entirely in data-plane registers.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "control/channel.hpp"
#include "core/dcqcn.hpp"
#include "sim/simulator.hpp"
#include "switchsim/switch.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/op_tracer.hpp"

namespace xmem::core {

class RdmaChannel {
 public:
  struct Stats {
    std::uint64_t writes_sent = 0;
    std::uint64_t reads_sent = 0;
    std::uint64_t atomics_sent = 0;
    std::int64_t request_bytes = 0;   // frame bytes of requests injected
    std::int64_t payload_bytes = 0;   // useful payload carried by WRITEs
    std::uint64_t cnp_rx = 0;         // congestion notifications received
    std::uint64_t paced_deferrals = 0;  // requests queued behind the pacer
  };

  RdmaChannel(switchsim::ProgrammableSwitch& sw,
              control::RdmaChannelConfig config);
  ~RdmaChannel();
  RdmaChannel(const RdmaChannel&) = delete;
  RdmaChannel& operator=(const RdmaChannel&) = delete;

  [[nodiscard]] const control::RdmaChannelConfig& config() const {
    return config_;
  }
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// --- Congestion control ---------------------------------------------
  /// Arm DCQCN on this channel. Off by default: without it the channel
  /// injects at wire speed and ignores CNPs, exactly the pre-CC
  /// behaviour. CC state (rate, alpha) survives reconfigure(): a
  /// reconnect changes the endpoint, not the fabric's congestion.
  void enable_congestion_control(DcqcnConfig config);
  [[nodiscard]] bool congestion_control_enabled() const {
    return cc_.has_value();
  }
  /// The live rate machine, or nullptr when CC is off.
  [[nodiscard]] const DcqcnRateController* rate_controller() const {
    return cc_ ? &*cc_ : nullptr;
  }
  /// A CNP addressed to this channel arrived (called by the owning
  /// primitive's demux). Counted even with CC off.
  void on_cnp();
  /// Requests currently queued behind the pacer.
  [[nodiscard]] std::size_t paced_backlog() const { return paced_.size(); }

  /// True when `msg` is a response addressed to this channel's QPN —
  /// the demux test each primitive's stage applies to ingress RoCE.
  [[nodiscard]] bool owns(const roce::RoceMessage& msg) const {
    return msg.bth.dest_qp == config_.local_qpn;
  }

  /// Craft and inject an RDMA WRITE of `payload` to remote `va`.
  /// Returns the PSN used. Multi-MTU payloads are segmented
  /// FIRST/MIDDLE/LAST exactly as an RNIC requester would.
  roce::Psn post_write(std::uint64_t va,
                       std::span<const std::uint8_t> payload,
                       bool ack_req = false) {
    return post_gathered(va, {}, payload, ack_req);
  }
  /// WRITE `frame` as a `[u32 len][frame]` record at `va`: the layout of
  /// a packet-buffer slot and of a lookup entry's deposit. The length
  /// and the frame are gathered straight into the request frames, which
  /// are the only copy made.
  roce::Psn post_frame(std::uint64_t va, std::span<const std::uint8_t> frame,
                       bool ack_req);
  /// The frame of the post_frame() record at `offset` in `bytes` (a READ
  /// response payload), as a packet sharing their storage with fresh
  /// metadata: nothing of the carrying frame is inherited. Throws
  /// net::BufferError when the record overruns `bytes`.
  [[nodiscard]] static net::Packet unwrap_frame(const net::ByteSlice& bytes,
                                                std::size_t offset);

  /// Craft and inject an RDMA READ request for [va, va+len).
  /// Returns the PSN of the request; the response's first packet carries
  /// the same PSN. Consumes ceil(len/mtu) PSNs.
  roce::Psn post_read(std::uint64_t va, std::uint32_t len);

  /// Retransmit a READ with its original PSN (reliability extensions).
  /// Does not advance the PSN register.
  void repost_read(std::uint64_t va, std::uint32_t len, roce::Psn psn);

  /// Retransmit a post_frame() record with its original PSN, acked
  /// (reliable stores). Does not advance the PSN register; the record
  /// must fit in one MTU so the repost is self-contained (ONLY opcode).
  void repost_frame(std::uint64_t va, std::span<const std::uint8_t> frame,
                    roce::Psn psn);

  /// Craft and inject an atomic Fetch-and-Add of `add` at `va`.
  /// Returns the PSN used (the AtomicAck echoes it).
  roce::Psn post_fetch_add(std::uint64_t va, std::uint64_t add);

  /// Retransmit a Fetch-and-Add with its original PSN (reliability
  /// extension). Does not advance the PSN register.
  void repost_fetch_add(std::uint64_t va, std::uint64_t add, roce::Psn psn);

  /// Craft and inject an atomic Compare-and-Swap: if the 8 bytes at `va`
  /// equal `compare`, they become `swap`; the AtomicAck returns the
  /// prior value either way. This is what lets the *data plane* claim a
  /// remote table slot atomically (e.g. connection-table inserts).
  roce::Psn post_compare_swap(std::uint64_t va, std::uint64_t compare,
                              std::uint64_t swap);

  /// Number of READ response segments `len` bytes will arrive in.
  [[nodiscard]] std::uint32_t read_segments(std::uint32_t len) const {
    if (len == 0) return 1;
    return static_cast<std::uint32_t>(
        (len + config_.path_mtu - 1) / config_.path_mtu);
  }

  [[nodiscard]] roce::Psn next_psn() const { return next_psn_; }

  /// Point the channel at a rebuilt remote endpoint (after
  /// ChannelController::reconnect): swaps in the new config and resets
  /// the PSN register to its initial_psn. Stats and telemetry
  /// attachments persist across the swap.
  void reconfigure(control::RdmaChannelConfig config);

  /// --- Telemetry -------------------------------------------------------
  /// Hook the channel into the telemetry layer. `registry` (nullable)
  /// gets every Stats field as a counter under `<prefix>/...`; `tracer`
  /// (nullable) records one span per posted verb on a track named
  /// `prefix`, keyed by PSN. Both must outlive the channel's use; the
  /// registry throws on a duplicate prefix.
  void attach_telemetry(telemetry::MetricsRegistry* registry,
                        telemetry::OpTracer* tracer,
                        const std::string& prefix);
  [[nodiscard]] telemetry::OpTracer* tracer() const { return tracer_; }

  /// Close the span for `psn` — called by the owning primitive when it
  /// matches the op's ACK / response / NAK. First close wins; stale
  /// duplicates are ignored. No-op without an attached tracer.
  void trace_complete(roce::Psn psn, std::string_view status = "ok");
  /// Record a retransmission of the still-open op (reliability paths).
  void trace_retransmit(roce::Psn psn);
  /// Attach an annotation (e.g. a NAK cause that triggered a retransmit)
  /// to the open span without closing it.
  void trace_annotate(roce::Psn psn, std::string_view key,
                      std::string_view value);

 private:
  /// A request of opcode `op` on this channel's queue pair.
  [[nodiscard]] roce::RoceMessage request(roce::Opcode op,
                                          roce::Psn psn) const;
  /// post_write() of `prefix` followed by `payload`.
  roce::Psn post_gathered(std::uint64_t va,
                          std::span<const std::uint8_t> prefix,
                          std::span<const std::uint8_t> payload, bool ack_req);
  /// Inject the WRITE segments of `prefix` ++ `payload` from `first_psn`,
  /// each frame gathered straight from the two spans. Returns the count.
  std::size_t send_write(std::uint64_t va,
                         std::span<const std::uint8_t> prefix,
                         std::span<const std::uint8_t> payload, bool ack_req,
                         roce::Psn first_psn);
  /// Build `msg`'s frame, its payload gathered from `payload`, and send
  /// it (or queue it behind the pacer).
  void inject(const roce::RoceMessage& msg,
              std::span<const std::span<const std::uint8_t>> payload = {});
  /// Hand a built frame to the switch unconditionally, charging the
  /// pacer clock when CC is in recovery.
  void send_now(net::Packet&& frame);
  void drain_paced();
  void arm_cc_timers();
  void on_alpha_tick();
  void on_rate_tick();
  void trace_begin(std::string_view verb, roce::Psn psn,
                   std::uint64_t bytes);

  switchsim::ProgrammableSwitch* switch_;
  control::RdmaChannelConfig config_;
  roce::Psn next_psn_;  // the per-channel PSN register
  telemetry::OpTracer* tracer_ = nullptr;
  int track_ = -1;
  Stats stats_;

  /// DCQCN reaction point + token pacer. `next_send_at_` is the earliest
  /// time the next paced frame may leave; frames posted sooner queue
  /// (already built: a frame depends only on its message) in `paced_`
  /// and drain via `drain_event_`. Timers only run while the
  /// controller is in recovery (plus alpha decay until it quiesces), so
  /// a congestion-free channel schedules no events at all.
  std::optional<DcqcnRateController> cc_;
  std::deque<net::Packet> paced_;
  sim::Time next_send_at_ = 0;
  sim::EventId drain_event_;
  sim::EventId alpha_event_;
  sim::EventId rate_event_;
};

}  // namespace xmem::core
