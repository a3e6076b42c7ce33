#include "rnic/verbs.hpp"

#include <algorithm>
#include <cassert>

#include "sim/log.hpp"

namespace xmem::rnic {

using roce::AckSyndrome;
using roce::Opcode;
using roce::RoceMessage;

RcRequester::RcRequester(sim::Simulator& simulator, Rnic& nic,
                         std::uint32_t qpn, Config config)
    : sim_(&simulator), nic_(&nic), qpn_(qpn), config_(config) {
  nic_->set_response_handler(
      qpn_, [this](const RoceMessage& msg) { on_response(msg); });
}

void RcRequester::connect(const roce::RoceEndpoint& remote,
                          std::uint32_t remote_qpn, roce::Psn initial_psn) {
  remote_ = remote;
  remote_qpn_ = remote_qpn;
  next_psn_ = initial_psn;
  lowest_unacked_ = next_psn_;
  sent_psn_ = next_psn_;
  connected_ = true;
  last_progress_ = sim_->now();
}

std::uint32_t RcRequester::packets_for(const Wqe& wqe) const {
  const std::size_t mtu = nic_->profile().path_mtu;
  switch (wqe.kind) {
    case WqeKind::kWrite: {
      const std::size_t n = (wqe.data.size() + mtu - 1) / mtu;
      return static_cast<std::uint32_t>(std::max<std::size_t>(1, n));
    }
    case WqeKind::kRead: {
      const std::size_t n = (wqe.read_len + mtu - 1) / mtu;
      return static_cast<std::uint32_t>(std::max<std::size_t>(1, n));
    }
    case WqeKind::kAtomic:
      return 1;
  }
  return 1;
}

std::size_t RcRequester::inflight() const {
  return static_cast<std::size_t>(
      std::max<std::int32_t>(0, roce::psn_distance(lowest_unacked_, sent_psn_)));
}

void RcRequester::post_write(std::uint64_t remote_va, std::uint32_t rkey,
                             std::vector<std::uint8_t> data,
                             CompletionFn on_complete, std::uint64_t wr_id) {
  Wqe wqe;
  wqe.kind = WqeKind::kWrite;
  wqe.remote_va = remote_va;
  wqe.rkey = rkey;
  wqe.data = std::move(data);
  wqe.on_complete = std::move(on_complete);
  wqe.wr_id = wr_id;
  wqes_.push_back(std::move(wqe));
  pump();
}

void RcRequester::post_read(std::uint64_t remote_va, std::uint32_t rkey,
                            std::size_t len, CompletionFn on_complete,
                            std::uint64_t wr_id) {
  Wqe wqe;
  wqe.kind = WqeKind::kRead;
  wqe.remote_va = remote_va;
  wqe.rkey = rkey;
  wqe.read_len = len;
  wqe.on_complete = std::move(on_complete);
  wqe.wr_id = wr_id;
  wqes_.push_back(std::move(wqe));
  pump();
}

void RcRequester::post_fetch_add(std::uint64_t remote_va, std::uint32_t rkey,
                                 std::uint64_t add, CompletionFn on_complete,
                                 std::uint64_t wr_id) {
  Wqe wqe;
  wqe.kind = WqeKind::kAtomic;
  wqe.remote_va = remote_va;
  wqe.rkey = rkey;
  wqe.atomic_add = add;
  wqe.on_complete = std::move(on_complete);
  wqe.wr_id = wr_id;
  wqes_.push_back(std::move(wqe));
  pump();
}

void RcRequester::pump() {
  assert(connected_ && "RcRequester: post before connect");
  bool sent_any = false;
  for (auto& wqe : wqes_) {
    if (inflight() >= config_.max_inflight_packets) break;
    if (!wqe.started) {
      wqe.started = true;
      wqe.first_psn = next_psn_;
      wqe.packet_count = packets_for(wqe);
      next_psn_ = roce::psn_add(next_psn_, wqe.packet_count);
    }
    while (wqe.packets_sent <
               (wqe.kind == WqeKind::kWrite ? wqe.packet_count : 1) &&
           inflight() < config_.max_inflight_packets) {
      transmit_next_packet_of(wqe);
      sent_any = true;
    }
    if (wqe.packets_sent <
        (wqe.kind == WqeKind::kWrite ? wqe.packet_count : 1)) {
      break;  // window full mid-message: resume here later
    }
  }
  if (sent_any) arm_timer();
}

void RcRequester::transmit_next_packet_of(Wqe& wqe) {
  const std::size_t mtu = nic_->profile().path_mtu;
  RoceMessage msg;
  msg.bth.dest_qp = remote_qpn_;
  std::span<const std::uint8_t> payload;  // gathered straight into the frame

  switch (wqe.kind) {
    case WqeKind::kWrite: {
      const std::uint32_t i = wqe.packets_sent;
      const std::size_t offset = static_cast<std::size_t>(i) * mtu;
      const std::size_t chunk =
          std::min(mtu, wqe.data.size() - std::min(wqe.data.size(), offset));
      const bool only = wqe.packet_count == 1;
      const bool first = i == 0;
      const bool last = i + 1 == wqe.packet_count;
      msg.bth.psn = roce::psn_add(wqe.first_psn, i);
      if (only) {
        msg.bth.opcode = Opcode::kRdmaWriteOnly;
      } else if (first) {
        msg.bth.opcode = Opcode::kRdmaWriteFirst;
      } else if (last) {
        msg.bth.opcode = Opcode::kRdmaWriteLast;
      } else {
        msg.bth.opcode = Opcode::kRdmaWriteMiddle;
      }
      msg.bth.ack_req = last;  // one ACK per message
      if (first || only) {
        msg.reth = roce::Reth{wqe.remote_va, wqe.rkey,
                              static_cast<std::uint32_t>(wqe.data.size())};
      }
      payload = std::span<const std::uint8_t>(wqe.data).subspan(
          std::min(wqe.data.size(), offset), chunk);
      wqe.packets_sent = i + 1;
      sent_psn_ = roce::psn_add(wqe.first_psn, wqe.packets_sent);
      break;
    }
    case WqeKind::kRead: {
      msg.bth.opcode = Opcode::kRdmaReadRequest;
      msg.bth.psn = wqe.first_psn;
      msg.reth = roce::Reth{wqe.remote_va, wqe.rkey,
                            static_cast<std::uint32_t>(wqe.read_len)};
      wqe.packets_sent = 1;
      wqe.read_buffer.clear();
      wqe.read_segments_received = 0;
      // A READ occupies its whole response range in PSN space.
      sent_psn_ = roce::psn_add(wqe.first_psn, wqe.packet_count);
      break;
    }
    case WqeKind::kAtomic: {
      msg.bth.opcode = Opcode::kFetchAdd;
      msg.bth.psn = wqe.first_psn;
      msg.atomic_eth = roce::AtomicEth{wqe.remote_va, wqe.rkey,
                                       wqe.atomic_add, 0};
      wqe.packets_sent = 1;
      sent_psn_ = roce::psn_add(wqe.first_psn, 1);
      break;
    }
  }

  nic_->transmit(roce::build_roce_packet(nic_->endpoint(), remote_, msg,
                                         {&payload, 1}));
}

void RcRequester::on_response(const RoceMessage& msg) {
  last_progress_ = sim_->now();
  const Opcode op = msg.opcode();

  if (op == Opcode::kAcknowledge || op == Opcode::kAtomicAcknowledge) {
    assert(msg.aeth.has_value());
    if (msg.aeth->is_nak()) {
      // Go back to what the responder expects next.
      lowest_unacked_ = msg.bth.psn;
      ++retransmits_;
      go_back_n();
      return;
    }
    const roce::Psn acked_through = roce::psn_add(msg.bth.psn, 1);
    if (roce::psn_distance(lowest_unacked_, acked_through) > 0) {
      lowest_unacked_ = acked_through;
    }
    // Mark write / atomic WQEs whose last PSN is covered.
    for (auto& wqe : wqes_) {
      if (!wqe.started || wqe.done) continue;
      const roce::Psn last_psn =
          roce::psn_add(wqe.first_psn, wqe.packet_count - 1);
      const bool covered = roce::psn_distance(last_psn, msg.bth.psn) >= 0;
      if (!covered) break;  // later WQEs cannot be covered either
      if (wqe.kind == WqeKind::kWrite) {
        wqe.done = true;
      } else if (wqe.kind == WqeKind::kAtomic &&
                 op == Opcode::kAtomicAcknowledge &&
                 msg.bth.psn == wqe.first_psn) {
        assert(msg.atomic_ack.has_value());
        wqe.atomic_result = msg.atomic_ack->original_value;
        wqe.done = true;
      }
    }
  } else if (roce::is_read_response(op)) {
    // Find the READ this segment belongs to.
    for (auto& wqe : wqes_) {
      if (!wqe.started || wqe.kind != WqeKind::kRead || wqe.done) continue;
      const std::int32_t off = roce::psn_distance(wqe.first_psn, msg.bth.psn);
      if (off < 0 || off >= static_cast<std::int32_t>(wqe.packet_count)) {
        continue;
      }
      if (static_cast<std::uint32_t>(off) != wqe.read_segments_received) {
        // Out-of-order segment: a response was lost. Reissue the READ.
        ++retransmits_;
        wqe.packets_sent = 0;
        wqe.read_segments_received = 0;
        wqe.read_buffer.clear();
        sent_psn_ = lowest_unacked_;
        pump();
        return;
      }
      wqe.read_buffer.insert(wqe.read_buffer.end(), msg.payload.begin(),
                             msg.payload.end());
      ++wqe.read_segments_received;
      if (wqe.read_segments_received == wqe.packet_count) {
        wqe.done = true;
        const roce::Psn after =
            roce::psn_add(wqe.first_psn, wqe.packet_count);
        if (roce::psn_distance(lowest_unacked_, after) > 0) {
          lowest_unacked_ = after;
        }
      }
      break;
    }
  }

  // Retire completed WQEs in order.
  while (!wqes_.empty() && wqes_.front().done) {
    complete_front(true);
  }
  pump();
}

void RcRequester::complete_front(bool success) {
  Wqe wqe = std::move(wqes_.front());
  wqes_.pop_front();
  if (!success) ++failures_;
  if (wqe.on_complete) {
    WorkCompletion wc;
    wc.success = success;
    wc.wr_id = wqe.wr_id;
    switch (wqe.kind) {
      case WqeKind::kWrite:
        wc.opcode = Opcode::kRdmaWriteOnly;
        break;
      case WqeKind::kRead:
        wc.opcode = Opcode::kRdmaReadRequest;
        wc.read_data = std::move(wqe.read_buffer);
        break;
      case WqeKind::kAtomic:
        wc.opcode = Opcode::kFetchAdd;
        wc.atomic_original = wqe.atomic_result;
        break;
    }
    wqe.on_complete(wc);
  }
}

void RcRequester::arm_timer() {
  if (timer_.pending()) return;
  timer_ = sim_->schedule_in(config_.retransmit_timeout,
                             [this]() { on_timeout(); });
}

void RcRequester::on_timeout() {
  if (wqes_.empty() || inflight() == 0) return;  // nothing outstanding
  if (sim_->now() - last_progress_ < config_.retransmit_timeout) {
    arm_timer();
    return;
  }
  Wqe& front = wqes_.front();
  if (++front.retries > config_.max_retries) {
    // Give up on the whole queue: the connection is broken.
    while (!wqes_.empty()) complete_front(false);
    return;
  }
  ++retransmits_;
  go_back_n();
  arm_timer();
}

void RcRequester::go_back_n() {
  // Rewind transmission progress to the lowest unacknowledged PSN and
  // replay from there. READs and atomics replay whole.
  sent_psn_ = lowest_unacked_;
  for (auto& wqe : wqes_) {
    if (!wqe.started || wqe.done) continue;
    switch (wqe.kind) {
      case WqeKind::kWrite: {
        const std::int32_t progress =
            roce::psn_distance(wqe.first_psn, lowest_unacked_);
        wqe.packets_sent = static_cast<std::uint32_t>(std::clamp<std::int32_t>(
            progress, 0, static_cast<std::int32_t>(wqe.packet_count)));
        break;
      }
      case WqeKind::kRead:
        wqe.packets_sent = 0;
        wqe.read_segments_received = 0;
        wqe.read_buffer.clear();
        break;
      case WqeKind::kAtomic:
        wqe.packets_sent = 0;
        break;
    }
  }
  pump();
}

}  // namespace xmem::rnic
