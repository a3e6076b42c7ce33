#include "core/rdma_channel.hpp"

#include <algorithm>
#include <array>
#include <cassert>

namespace xmem::core {

using roce::Opcode;
using roce::RoceMessage;

namespace {

/// The `[u32 len]` head of a post_frame() record.
std::array<std::uint8_t, 4> length_prefix(std::size_t len) {
  std::array<std::uint8_t, 4> prefix{};
  net::ByteWriter(prefix).u32(static_cast<std::uint32_t>(len));
  return prefix;
}

}  // namespace

RdmaChannel::RdmaChannel(switchsim::ProgrammableSwitch& sw,
                         control::RdmaChannelConfig config)
    : switch_(&sw), config_(std::move(config)),
      next_psn_(config_.initial_psn) {
  assert(config_.switch_port >= 0 && "channel has no egress port");
}

RdmaChannel::~RdmaChannel() {
  drain_event_.cancel();
  alpha_event_.cancel();
  rate_event_.cancel();
}

void RdmaChannel::enable_congestion_control(DcqcnConfig config) {
  cc_.emplace(config);
}

void RdmaChannel::on_cnp() {
  ++stats_.cnp_rx;
  if (!cc_) return;
  const bool was_recovering = cc_->in_recovery();
  cc_->on_cnp();
  if (!was_recovering) {
    // First CNP of this congestion episode: pacing starts from now, not
    // from a stale clock left over by the previous episode.
    next_send_at_ = std::max(next_send_at_, switch_->simulator().now());
    arm_cc_timers();
  }
}

void RdmaChannel::arm_cc_timers() {
  auto& sim = switch_->simulator();
  if (!alpha_event_.pending()) {
    alpha_event_ =
        sim.schedule_in(cc_->config().alpha_timer, [this] { on_alpha_tick(); });
  }
  if (!rate_event_.pending()) {
    rate_event_ =
        sim.schedule_in(cc_->config().rate_timer, [this] { on_rate_tick(); });
  }
}

void RdmaChannel::on_alpha_tick() {
  cc_->on_alpha_timer();
  // Keep decaying after recovery ends so the next episode starts from a
  // faded congestion estimate; quiesce once alpha is negligible.
  if (cc_->in_recovery() || cc_->alpha() > 1e-3) {
    alpha_event_ = switch_->simulator().schedule_in(
        cc_->config().alpha_timer, [this] { on_alpha_tick(); });
  }
}

void RdmaChannel::on_rate_tick() {
  cc_->on_rate_timer();
  if (cc_->in_recovery()) {
    rate_event_ = switch_->simulator().schedule_in(
        cc_->config().rate_timer, [this] { on_rate_tick(); });
  }
  if (!paced_.empty() && !drain_event_.pending()) {
    // A rate step may have pulled next_send_at_ into the past relative
    // to the queued backlog's old schedule; re-arm the drain.
    drain_event_ = switch_->simulator().schedule_at(
        std::max(next_send_at_, switch_->simulator().now()),
        [this] { drain_paced(); });
  }
}

void RdmaChannel::attach_telemetry(telemetry::MetricsRegistry* registry,
                                   telemetry::OpTracer* tracer,
                                   const std::string& prefix) {
  if (registry != nullptr) {
    registry->register_counter(
        prefix + "/writes_sent",
        [this]() { return static_cast<std::int64_t>(stats_.writes_sent); },
        "ops");
    registry->register_counter(
        prefix + "/reads_sent",
        [this]() { return static_cast<std::int64_t>(stats_.reads_sent); },
        "ops");
    registry->register_counter(
        prefix + "/atomics_sent",
        [this]() { return static_cast<std::int64_t>(stats_.atomics_sent); },
        "ops");
    registry->register_counter(
        prefix + "/request_bytes", [this]() { return stats_.request_bytes; },
        "bytes");
    registry->register_counter(
        prefix + "/payload_bytes", [this]() { return stats_.payload_bytes; },
        "bytes");
    registry->register_counter(
        prefix + "/cnp_rx",
        [this]() { return static_cast<std::int64_t>(stats_.cnp_rx); }, "ops");
    registry->register_counter(
        prefix + "/paced_deferrals",
        [this]() { return static_cast<std::int64_t>(stats_.paced_deferrals); },
        "ops");
    // Allowed DCQCN rate; 0 means uncapped (congestion control is off).
    registry->register_gauge(
        prefix + "/current_rate_gbps",
        [this]() { return cc_ ? sim::to_gbps(cc_->rate()) : 0.0; }, "Gbps");
  }
  if (tracer != nullptr) {
    tracer_ = tracer;
    track_ = tracer_->track(prefix);
  }
}

void RdmaChannel::trace_begin(std::string_view verb, roce::Psn psn,
                              std::uint64_t bytes) {
  if (tracer_ != nullptr) tracer_->begin_op(track_, verb, psn, bytes);
}

void RdmaChannel::trace_complete(roce::Psn psn, std::string_view status) {
  if (tracer_ != nullptr) tracer_->end_op(track_, psn, status);
}

void RdmaChannel::trace_retransmit(roce::Psn psn) {
  if (tracer_ != nullptr) tracer_->note_retransmit(track_, psn);
}

void RdmaChannel::trace_annotate(roce::Psn psn, std::string_view key,
                                 std::string_view value) {
  if (tracer_ != nullptr) tracer_->annotate(track_, psn, key, value);
}

void RdmaChannel::inject(
    const RoceMessage& msg,
    std::span<const std::span<const std::uint8_t>> payload) {
  net::Packet frame =
      roce::build_roce_packet(config_.local, config_.remote, msg, payload);
  if (!cc_ || !cc_->in_recovery()) {
    // Uncongested (or CC off): wire-speed injection, byte-identical to
    // the pre-pacing code path.
    send_now(std::move(frame));
    return;
  }
  const sim::Time now = switch_->simulator().now();
  if (paced_.empty() && now >= next_send_at_) {
    send_now(std::move(frame));
    return;
  }
  ++stats_.paced_deferrals;
  paced_.push_back(std::move(frame));
  if (!drain_event_.pending()) {
    drain_event_ = switch_->simulator().schedule_at(
        std::max(next_send_at_, now), [this] { drain_paced(); });
  }
}

void RdmaChannel::send_now(net::Packet&& frame) {
  const auto bytes = static_cast<std::int64_t>(frame.size());
  stats_.request_bytes += bytes;
  if (cc_ && cc_->in_recovery()) {
    // Charge the pacer: the next frame may leave once this one has
    // serialized at the current allowed rate.
    next_send_at_ = std::max(next_send_at_, switch_->simulator().now()) +
                    sim::transmission_time(bytes, cc_->rate());
  }
  switch_->inject(std::move(frame), config_.switch_port);
  if (cc_) cc_->on_bytes_sent(static_cast<std::uint64_t>(bytes));
}

void RdmaChannel::drain_paced() {
  const sim::Time now = switch_->simulator().now();
  // Send every frame whose pace slot has arrived; a byte-counter round
  // inside send_now() can end recovery mid-drain, after which the rest
  // of the backlog flushes at wire speed.
  while (!paced_.empty() && (now >= next_send_at_ || !cc_->in_recovery())) {
    net::Packet frame = std::move(paced_.front());
    paced_.pop_front();
    send_now(std::move(frame));
  }
  if (!paced_.empty()) {
    drain_event_ = switch_->simulator().schedule_at(next_send_at_,
                                                    [this] { drain_paced(); });
  }
}

RoceMessage RdmaChannel::request(Opcode op, roce::Psn psn) const {
  RoceMessage msg;
  msg.bth.opcode = op;
  msg.bth.dest_qp = config_.remote_qpn;
  msg.bth.psn = psn;
  return msg;
}

roce::Psn RdmaChannel::post_frame(std::uint64_t va,
                                  std::span<const std::uint8_t> frame,
                                  bool ack_req) {
  return post_gathered(va, length_prefix(frame.size()), frame, ack_req);
}

net::Packet RdmaChannel::unwrap_frame(const net::ByteSlice& bytes,
                                      std::size_t offset) {
  net::ByteReader r(bytes.bytes());
  r.skip(offset);
  const std::uint32_t len = r.u32();
  return net::Packet(bytes.slice(r.position(), len));
}

roce::Psn RdmaChannel::post_gathered(std::uint64_t va,
                                     std::span<const std::uint8_t> prefix,
                                     std::span<const std::uint8_t> payload,
                                     bool ack_req) {
  const roce::Psn first_psn = next_psn_;
  const std::size_t total = prefix.size() + payload.size();
  trace_begin("WRITE", first_psn, total);
  const std::size_t segments =
      send_write(va, prefix, payload, ack_req, first_psn);
  next_psn_ = roce::psn_add(first_psn, static_cast<std::uint32_t>(segments));
  ++stats_.writes_sent;
  stats_.payload_bytes += static_cast<std::int64_t>(total);
  // Unacknowledged WRITEs get no response: their span closes at injection
  // ("posted"), so fire-and-forget stores still appear on the timeline.
  if (!ack_req) trace_complete(first_psn, "posted");
  return first_psn;
}

std::size_t RdmaChannel::send_write(std::uint64_t va,
                                    std::span<const std::uint8_t> prefix,
                                    std::span<const std::uint8_t> payload,
                                    bool ack_req, roce::Psn first_psn) {
  const std::size_t mtu = config_.path_mtu;
  const std::size_t total = prefix.size() + payload.size();
  const std::size_t segments = total == 0 ? 1 : (total + mtu - 1) / mtu;
  for (std::size_t i = 0; i < segments; ++i) {
    const bool first = i == 0;
    const bool last = i + 1 == segments;
    const Opcode op = segments == 1 ? Opcode::kRdmaWriteOnly
                      : first       ? Opcode::kRdmaWriteFirst
                      : last        ? Opcode::kRdmaWriteLast
                                    : Opcode::kRdmaWriteMiddle;
    RoceMessage msg =
        request(op, roce::psn_add(first_psn, static_cast<std::uint32_t>(i)));
    msg.bth.ack_req = ack_req && last;
    if (first) {
      msg.reth =
          roce::Reth{va, config_.rkey, static_cast<std::uint32_t>(total)};
    }
    // This segment's bytes [offset, offset + chunk) of prefix ++ payload.
    const std::size_t offset = i * mtu;
    const std::size_t chunk = std::min(mtu, total - offset);
    const std::size_t head = std::min(offset, prefix.size());
    const std::size_t head_len = std::min(chunk, prefix.size() - head);
    const std::size_t body = std::max(offset, prefix.size()) - prefix.size();
    const std::array<std::span<const std::uint8_t>, 2> pieces{
        prefix.subspan(head, head_len),
        payload.subspan(body, chunk - head_len)};
    inject(msg, pieces);
  }
  return segments;
}

roce::Psn RdmaChannel::post_read(std::uint64_t va, std::uint32_t len) {
  RoceMessage msg = request(Opcode::kRdmaReadRequest, next_psn_);
  msg.reth = roce::Reth{va, config_.rkey, len};
  const roce::Psn psn = next_psn_;
  next_psn_ = roce::psn_add(next_psn_, read_segments(len));
  ++stats_.reads_sent;
  trace_begin("READ", psn, len);
  inject(msg);
  return psn;
}

void RdmaChannel::reconfigure(control::RdmaChannelConfig config) {
  assert(config.switch_port >= 0 && "channel has no egress port");
  config_ = std::move(config);
  next_psn_ = config_.initial_psn;
}

void RdmaChannel::repost_frame(std::uint64_t va,
                               std::span<const std::uint8_t> frame,
                               roce::Psn psn) {
  const auto prefix = length_prefix(frame.size());
  assert(prefix.size() + frame.size() <= config_.path_mtu &&
         "repost_frame: record exceeds one MTU");
  trace_retransmit(psn);
  send_write(va, prefix, frame, /*ack_req=*/true, psn);
}

void RdmaChannel::repost_read(std::uint64_t va, std::uint32_t len,
                              roce::Psn psn) {
  RoceMessage msg = request(Opcode::kRdmaReadRequest, psn);
  msg.reth = roce::Reth{va, config_.rkey, len};
  trace_retransmit(psn);
  inject(msg);
}

roce::Psn RdmaChannel::post_fetch_add(std::uint64_t va, std::uint64_t add) {
  RoceMessage msg = request(Opcode::kFetchAdd, next_psn_);
  msg.atomic_eth = roce::AtomicEth{va, config_.rkey, add, 0};
  const roce::Psn psn = next_psn_;
  next_psn_ = roce::psn_add(next_psn_, 1);
  ++stats_.atomics_sent;
  trace_begin("FETCH_ADD", psn, 8);
  inject(msg);
  return psn;
}

roce::Psn RdmaChannel::post_compare_swap(std::uint64_t va,
                                         std::uint64_t compare,
                                         std::uint64_t swap) {
  RoceMessage msg = request(Opcode::kCompareSwap, next_psn_);
  msg.atomic_eth = roce::AtomicEth{va, config_.rkey, swap, compare};
  const roce::Psn psn = next_psn_;
  next_psn_ = roce::psn_add(next_psn_, 1);
  ++stats_.atomics_sent;
  trace_begin("CMP_SWAP", psn, 8);
  inject(msg);
  return psn;
}

void RdmaChannel::repost_fetch_add(std::uint64_t va, std::uint64_t add,
                                   roce::Psn psn) {
  RoceMessage msg = request(Opcode::kFetchAdd, psn);
  msg.atomic_eth = roce::AtomicEth{va, config_.rkey, add, 0};
  trace_retransmit(psn);
  inject(msg);
}

}  // namespace xmem::core
