#include "switchsim/switch.hpp"

#include <cassert>

#include "net/bytes.hpp"
#include "net/pause.hpp"
#include "sim/log.hpp"

namespace xmem::switchsim {

ProgrammableSwitch::ProgrammableSwitch(sim::Simulator& simulator,
                                       std::string name, Config config)
    : topo::Node(simulator, std::move(name)), config_(config) {}

void ProgrammableSwitch::setup() {
  assert(tm_ == nullptr && "setup() called twice");
  tm_ = std::make_unique<TrafficManager>(port_count(), config_.tm);
  for (int p = 0; p < port_count(); ++p) {
    port(p).set_idle_callback([this, p]() { service_port(p); });
  }
}

void ProgrammableSwitch::register_metrics(telemetry::MetricsRegistry& registry,
                                          const std::string& prefix) {
  assert(ready() && "register_metrics before setup()");
  auto counter = [&](const char* field, const std::uint64_t* value,
                     const char* unit) {
    registry.register_counter(
        prefix + "/" + field,
        [value]() { return static_cast<std::int64_t>(*value); }, unit);
  };
  counter("received", &stats_.received, "packets");
  counter("parse_errors", &stats_.parse_errors, "packets");
  counter("forwarded", &stats_.forwarded, "packets");
  counter("stage_drops", &stats_.stage_drops, "packets");
  counter("consumed", &stats_.consumed, "packets");
  counter("no_route_drops", &stats_.no_route_drops, "packets");
  counter("buffer_drops", &stats_.buffer_drops, "packets");
  counter("injected", &stats_.injected, "packets");
  counter("recirculated", &stats_.recirculated, "packets");
  counter("pfc_xoff_sent", &stats_.pfc_xoff_sent, "frames");
  counter("pfc_xon_sent", &stats_.pfc_xon_sent, "frames");
  tm_->register_metrics(registry, prefix + "/tm");
}

void ProgrammableSwitch::add_ingress_stage(
    std::string name, std::function<void(PipelineContext&)> fn) {
  ingress_stages_.push_back(Stage{std::move(name), std::move(fn)});
}

void ProgrammableSwitch::add_egress_stage(
    std::string name, std::function<void(PipelineContext&)> fn) {
  egress_stages_.push_back(Stage{std::move(name), std::move(fn)});
}

void ProgrammableSwitch::set_l2_route(const net::MacAddress& mac, int port) {
  l2_routes_[mac] = port;
}

void ProgrammableSwitch::enable_pfc(std::int64_t xoff_bytes,
                                    std::int64_t xon_bytes,
                                    int priority_class) {
  assert(ready() && "enable_pfc before setup()");
  assert(xon_bytes < xoff_bytes);
  assert(priority_class >= 0 && priority_class < 8);
  pfc_enabled_ = true;
  pfc_xoff_bytes_ = xoff_bytes;
  pfc_xon_bytes_ = xon_bytes;
  pfc_class_ = priority_class;
  tm_->add_watcher([this](QueueEvent event, int, std::int64_t) {
    if (event == QueueEvent::kEnqueue && !pfc_paused_ &&
        tm_->buffer_used() >= pfc_xoff_bytes_) {
      pfc_paused_ = true;
      pfc_broadcast(/*xoff=*/true);
    } else if (event == QueueEvent::kDequeue && pfc_paused_ &&
               tm_->buffer_used() <= pfc_xon_bytes_) {
      pfc_paused_ = false;
      pfc_broadcast(/*xoff=*/false);
    }
  });
}

void ProgrammableSwitch::pfc_broadcast(bool xoff) {
  // MAC-control frames are emitted by the port MACs directly (they do
  // not traverse the traffic manager).
  const net::MacAddress self = net::MacAddress::from_index(0);
  const net::PfcFrame frame =
      xoff ? net::pfc_xoff(self, pfc_class_) : net::pfc_xon(self, pfc_class_);
  for (int p = 0; p < port_count(); ++p) {
    if (!port(p).connected()) continue;
    port(p).send(net::build_pfc_frame(frame));
  }
  if (xoff) {
    ++stats_.pfc_xoff_sent;
  } else {
    ++stats_.pfc_xon_sent;
  }
}

void ProgrammableSwitch::receive(net::Packet&& packet, int port) {
  assert(ready() && "ProgrammableSwitch::setup() was not called");
  ++stats_.received;
  // The pipeline-latency hop carries just the packet and its port (the
  // context is built when the pass runs), so it stays inside the event
  // queue's inline closure storage instead of being heap-boxed.
  auto pass = [this, p = std::move(packet), port]() mutable {
    run_ingress(std::move(p), port);
  };
  static_assert(sim::InlineFunction::fits_inline<decltype(pass)>());
  sim_->schedule_in(config_.pipeline_latency, std::move(pass));
}

void ProgrammableSwitch::recirculate(net::Packet&& packet) {
  assert(ready());
  ++stats_.recirculated;
  auto pass = [this, p = std::move(packet)]() mutable {
    run_ingress(std::move(p), kRecirculatePort);
  };
  static_assert(sim::InlineFunction::fits_inline<decltype(pass)>());
  sim_->schedule_in(config_.recirculate_latency, std::move(pass));
}

void ProgrammableSwitch::run_ingress(net::Packet&& packet, int port) {
  PipelineContext ctx;
  ctx.packet = std::move(packet);
  ctx.ingress_port = port;
  ctx.now = sim_->now();
  try {
    ctx.headers = net::parse_packet(ctx.packet);
  } catch (const net::BufferError&) {
    ++stats_.parse_errors;
    ctx.headers.reset();
  }

  for (const auto& stage : ingress_stages_) {
    stage.fn(ctx);
    if (ctx.finished()) break;
  }

  if (ctx.consumed()) {
    ++stats_.consumed;
    return;
  }
  if (ctx.dropped()) {
    ++stats_.stage_drops;
    return;
  }
  if (ctx.egress_port == kNoPort) resolve_l2(ctx);
  if (ctx.egress_port == kNoPort) {
    ++stats_.no_route_drops;
    return;
  }
  enqueue_for_egress(std::move(ctx.packet), ctx.egress_port);
}

void ProgrammableSwitch::resolve_l2(PipelineContext& ctx) {
  if (auto port = l2_route_for(ctx.packet)) ctx.egress_port = *port;
}

std::optional<int> ProgrammableSwitch::l2_route_for(
    const net::Packet& p) const {
  if (p.size() < 6) return std::nullopt;
  std::array<std::uint8_t, 6> dst{};
  const auto b = p.bytes();
  std::copy(b.begin(), b.begin() + 6, dst.begin());
  auto it = l2_routes_.find(net::MacAddress(dst));
  if (it == l2_routes_.end()) return std::nullopt;
  return it->second;
}

void ProgrammableSwitch::inject(net::Packet&& packet, int port) {
  assert(ready());
  ++stats_.injected;
  enqueue_for_egress(std::move(packet), port);
}

void ProgrammableSwitch::enqueue_for_egress(net::Packet&& packet, int port) {
  assert(port >= 0 && port < port_count());
  if (!tm_->enqueue(port, std::move(packet), sim_->now())) {
    ++stats_.buffer_drops;
    return;
  }
  if (this->port(port).idle()) service_port(port);
}

void ProgrammableSwitch::service_port(int port_index) {
  auto packet = tm_->dequeue(port_index);
  if (!packet) return;

  // Transit behavior: the switch appends its TM-residency hop only to
  // packets an upstream source already tagged — it never starts stacks,
  // so untagged (unmonitored) traffic pays nothing here.
  if (int_enabled_) {
    if (net::IntStack* stack = packet->meta().int_stack.get()) {
      net::IntHopRecord rec;
      rec.hop_id = int_hop_id_;
      rec.kind = static_cast<std::uint8_t>(net::IntHopKind::kTmQueue);
      rec.flags = net::IntHopRecord::kFlagDepthValid;
      rec.queue_depth =
          static_cast<std::uint32_t>(tm_->depth_bytes(port_index));
      rec.ingress_ns = net::int_timestamp_ns(packet->meta().enqueued);
      rec.egress_ns = net::int_timestamp_ns(sim_->now());
      stack->push(rec);
    }
  }

  if (!egress_stages_.empty()) {
    PipelineContext ctx;
    ctx.packet = std::move(*packet);
    ctx.egress_port = port_index;
    ctx.now = sim_->now();
    try {
      ctx.headers = net::parse_packet(ctx.packet);
    } catch (const net::BufferError&) {
      ctx.headers.reset();
    }
    for (const auto& stage : egress_stages_) {
      stage.fn(ctx);
      if (ctx.finished()) break;
    }
    if (ctx.finished()) {
      // Egress drop/consume: move on to the next queued packet.
      if (ctx.dropped()) ++stats_.stage_drops;
      if (ctx.consumed()) ++stats_.consumed;
      service_port(port_index);
      return;
    }
    packet = std::move(ctx.packet);
  }

  ++stats_.forwarded;
  port(port_index).send(std::move(*packet));
}

}  // namespace xmem::switchsim
