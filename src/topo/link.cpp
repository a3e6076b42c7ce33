#include "topo/link.hpp"

#include <cassert>
#include <stdexcept>

namespace xmem::topo {

namespace {

/// First byte eligible for corruption: past Ethernet (14) + IPv4 (20) +
/// UDP (8) headers, so a corrupted RoCE frame still parses as UDP but
/// deterministically fails its ICRC check at the receiver.
constexpr std::size_t kCorruptOffset = 42;

}  // namespace

void Link::attach(int end, Node& node, int port_index) {
  if (end != 0 && end != 1) {
    throw std::invalid_argument("Link::attach: end must be 0 or 1");
  }
  ends_[end] = End{&node, port_index};
  node.port(port_index).attach(this, end);
}

void Link::set_loss_rate(double rate, std::uint64_t seed, int direction) {
  LinkFaultProfile profile;
  profile.loss_rate = rate;
  set_fault_profile(profile, seed, direction);
}

void Link::set_fault_profile(const LinkFaultProfile& profile,
                             std::uint64_t seed, int direction) {
  if (profile.loss_rate < 0.0 || profile.loss_rate >= 1.0) {
    throw std::invalid_argument(
        "Link::set_fault_profile: loss_rate must be in [0,1)");
  }
  if (profile.corrupt_rate < 0.0 || profile.corrupt_rate > 1.0 ||
      profile.duplicate_rate < 0.0 || profile.duplicate_rate > 1.0 ||
      profile.reorder_rate < 0.0 || profile.reorder_rate > 1.0) {
    throw std::invalid_argument(
        "Link::set_fault_profile: fault rates must be in [0,1]");
  }
  // Negative delays would schedule the affected frame *before* it
  // finished serializing — the simulator would deliver it in the past.
  if (profile.jitter_max < 0 || profile.duplicate_gap < 0 ||
      profile.reorder_delay < 0) {
    throw std::invalid_argument(
        "Link::set_fault_profile: delays must be non-negative");
  }
  if (direction < -1 || direction > 1) {
    throw std::invalid_argument("Link::set_fault_profile: bad direction");
  }
  fault_ = profile;
  fault_direction_ = direction;
  burst_bad_ = false;
  fault_rng_.reseed(seed);
}

bool Link::roll_loss() {
  if (fault_.burst.has_value()) {
    const GilbertElliott& ge = *fault_.burst;
    // Advance the two-state chain once per frame, then roll the loss
    // probability of the state we land in.
    if (burst_bad_) {
      if (fault_rng_.chance(ge.exit_bad)) burst_bad_ = false;
    } else {
      if (fault_rng_.chance(ge.enter_bad)) burst_bad_ = true;
    }
    const double p = burst_bad_ ? ge.loss_bad : ge.loss_good;
    return p > 0.0 && fault_rng_.chance(p);
  }
  return fault_.loss_rate > 0.0 && fault_rng_.chance(fault_.loss_rate);
}

void Link::ship(const End& to, net::Packet&& packet, sim::Time when) {
  auto arrive = [to, p = std::move(packet)]() mutable {
    to.node->port(to.port).note_received(p);
    p.meta().ingress_port = to.port;
    to.node->receive(std::move(p), to.port);
  };
  static_assert(sim::InlineFunction::fits_inline<decltype(arrive)>());
  sim_->schedule_at(when, std::move(arrive));
}

void Link::deliver(int from_end, net::Packet&& packet, sim::Time when_serialized) {
  assert(from_end == 0 || from_end == 1);
  const End& to = ends_[1 - from_end];
  assert(to.node != nullptr && "Link::deliver on half-attached link");

  tx_bytes_[from_end] += static_cast<std::int64_t>(packet.size());
  ++tx_frames_[from_end];
  if (tap_) tap_(packet, when_serialized, from_end);

  if (int_enabled_) {
    // Source behavior: start a stack unless the filter excludes this
    // frame; always append to a stack someone upstream already started.
    net::IntStack* stack = packet.meta().int_stack.get();
    if (stack == nullptr && (!int_filter_ || int_filter_(packet))) {
      stack = &packet.meta().int_stack.ensure();
    }
    if (stack != nullptr) {
      const End& from = ends_[from_end];
      net::IntHopRecord rec;
      rec.hop_id = int_hop_id_;
      rec.kind = static_cast<std::uint8_t>(net::IntHopKind::kLink);
      rec.flags = net::IntHopRecord::kFlagDepthValid;
      rec.queue_depth = static_cast<std::uint32_t>(
          from.node->port(from.port).queued());
      rec.ingress_ns = net::int_timestamp_ns(packet.meta().enqueued);
      rec.egress_ns = net::int_timestamp_ns(when_serialized);
      stack->push(rec);
    }
  }

  sim::Time arrival = when_serialized + propagation_;
  if (fault_.active() && fault_applies(from_end)) {
    if (roll_loss()) {
      ++dropped_;
      return;
    }
    if (fault_.corrupt_rate > 0.0 && fault_rng_.chance(fault_.corrupt_rate) &&
        packet.size() > kCorruptOffset) {
      const auto bytes = packet.mutable_bytes();
      const std::size_t span = packet.size() - kCorruptOffset;
      const std::size_t victim =
          kCorruptOffset + static_cast<std::size_t>(fault_rng_.uniform(
                               static_cast<std::uint64_t>(span)));
      bytes[victim] ^= 0xff;
      ++corrupted_;
    }
    if (fault_.jitter_max > 0) {
      arrival += static_cast<sim::Time>(fault_rng_.uniform(
          static_cast<std::uint64_t>(fault_.jitter_max) + 1));
    }
    if (fault_.reorder_rate > 0.0 && fault_rng_.chance(fault_.reorder_rate)) {
      arrival += fault_.reorder_delay;
      ++reordered_;
    }
    if (fault_.duplicate_rate > 0.0 &&
        fault_rng_.chance(fault_.duplicate_rate)) {
      ++duplicated_;
      ship(to, packet.clone(), arrival + fault_.duplicate_gap);
    }
  }

  ship(to, std::move(packet), arrival);
}

double Link::utilization(int end) const {
  assert(end == 0 || end == 1);
  const sim::Time now = sim_->now();
  if (now <= 0 || rate_ <= 0) return 0.0;
  const double sent_bits = 8.0 * static_cast<double>(tx_bytes_[end]);
  const double capacity_bits = static_cast<double>(rate_) *
                               (static_cast<double>(now) /
                                static_cast<double>(sim::kSecond));
  return sent_bits / capacity_bits;
}

void Link::register_metrics(telemetry::MetricsRegistry& registry,
                            const std::string& prefix) {
  for (int end = 0; end < 2; ++end) {
    const std::string base = prefix + "/end" + std::to_string(end);
    registry.register_counter(
        base + "/tx_bytes", [this, end]() { return tx_bytes_[end]; },
        "bytes");
    registry.register_counter(
        base + "/tx_frames",
        [this, end]() { return static_cast<std::int64_t>(tx_frames_[end]); },
        "frames");
    registry.register_gauge(
        base + "/utilization", [this, end]() { return utilization(end); },
        "fraction");
  }
  registry.register_counter(
      prefix + "/dropped_frames",
      [this]() { return static_cast<std::int64_t>(dropped_); }, "frames");
  registry.register_counter(
      prefix + "/corrupted_frames",
      [this]() { return static_cast<std::int64_t>(corrupted_); }, "frames");
  registry.register_counter(
      prefix + "/duplicated_frames",
      [this]() { return static_cast<std::int64_t>(duplicated_); }, "frames");
  registry.register_counter(
      prefix + "/reordered_frames",
      [this]() { return static_cast<std::int64_t>(reordered_); }, "frames");
}

std::unique_ptr<Link> connect(sim::Simulator& simulator, Node& a, Node& b,
                              sim::Bandwidth rate, sim::Time propagation,
                              int* port_a, int* port_b) {
  auto link = std::make_unique<Link>(simulator, rate, propagation);
  const int pa = a.add_port();
  const int pb = b.add_port();
  link->attach(0, a, pa);
  link->attach(1, b, pb);
  if (port_a) *port_a = pa;
  if (port_b) *port_b = pb;
  return link;
}

}  // namespace xmem::topo
