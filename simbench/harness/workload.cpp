#include "workload.hpp"

#include <algorithm>
#include <bit>

#include "host/host.hpp"
#include "telemetry/sim_metrics.hpp"

namespace simbench {

void Digest::add(const std::string& name, std::uint64_t value) {
  text_ += name + "=" + std::to_string(value) + " ";
  for (int i = 0; i < 8; ++i) {
    hash_ ^= (value >> (8 * i)) & 0xff;
    hash_ *= 0x100000001b3ULL;
  }
  for (const char c : name) {
    hash_ ^= static_cast<std::uint8_t>(c);
    hash_ *= 0x100000001b3ULL;
  }
}

void LatencyBuckets::add(sim::Time latency) {
  const auto ns = static_cast<std::uint64_t>(std::max<sim::Time>(
      0, latency / sim::kNanosecond));
  std::size_t index = 0;
  if (ns < 16) {
    index = static_cast<std::size_t>(ns);
  } else {
    const int exp = static_cast<int>(std::bit_width(ns)) - 1;  // >= 4
    const auto mantissa = static_cast<std::size_t>((ns >> (exp - 4)) & 15);
    index = static_cast<std::size_t>(exp - 3) * 16 + mantissa;
  }
  ++buckets_[std::min(index, kBuckets - 1)];
  ++count_;
}

void LatencyBuckets::fold(Digest& digest, const std::string& name) const {
  digest.add(name + ".count", count_);
  for (std::size_t i = 0; i < kBuckets; ++i) {
    if (buckets_[i] != 0) {
      digest.add(name + ".b" + std::to_string(i), buckets_[i]);
    }
  }
}

LayerCounts LayerCounts::operator-(const LayerCounts& b) const {
  LayerCounts d;
  d.offered = offered - b.offered;
  d.delivered = delivered - b.delivered;
  d.events = events - b.events;
  d.link_frames = link_frames - b.link_frames;
  d.link_drops = link_drops - b.link_drops;
  d.roce_frames = roce_frames - b.roce_frames;
  d.roce_bytes = roce_bytes - b.roce_bytes;
  d.sw_received = sw_received - b.sw_received;
  d.sw_recirculated = sw_recirculated - b.sw_recirculated;
  d.sw_injected = sw_injected - b.sw_injected;
  d.tm_drops = tm_drops - b.tm_drops;
  d.pfc_xoff = pfc_xoff - b.pfc_xoff;
  d.rnic_requests = rnic_requests - b.rnic_requests;
  d.rnic_overflow = rnic_overflow - b.rnic_overflow;
  d.rnic_naks = rnic_naks - b.rnic_naks;
  d.remote_ops = remote_ops - b.remote_ops;
  d.retransmits = retransmits - b.retransmits;
  d.sampled = sampled - b.sampled;
  d.fa_sent = fa_sent - b.fa_sent;
  d.fa_acked = fa_acked - b.fa_acked;
  d.cache_hits = cache_hits - b.cache_hits;
  d.cache_lookups = cache_lookups - b.cache_lookups;
  d.cache_invalidations = cache_invalidations - b.cache_invalidations;
  return d;
}

TenantSource::TenantSource(Config config, FlowFn flow)
    : config_(config), flow_(std::move(flow)) {
  interval_ = sim::transmission_time(
      static_cast<std::int64_t>(config_.frame_bytes), config_.rate);
  payload_bytes_ = config_.frame_bytes - kProbeOffset;
}

void TenantSource::start() {
  running_ = true;
  config_.from->simulator().schedule_at(config_.start,
                                        [this]() { send_next(); });
}

void TenantSource::send_next() {
  if (!running_) return;
  auto& simulator = config_.from->simulator();
  const sim::Time now = simulator.now();
  if (config_.period > 0) {
    const sim::Time phase = (now - config_.start) % config_.period;
    if (phase >= config_.burst) {
      simulator.schedule_in(config_.period - phase, [this]() { send_next(); });
      return;
    }
  }
  std::vector<std::uint8_t> payload(payload_bytes_, 0);
  xmem::host::ProbeHeader{sent_, now}.write_to(payload);
  const std::uint16_t port = flow_();
  if (capture_ != nullptr) capture_->key_trace.push_back(port);
  net::Packet packet = net::build_udp_packet(
      config_.from->mac(), config_.dst_mac, config_.from->ip(),
      config_.dst_ip, port, kDstPort, payload);
  packet.meta().created = now;
  packet.meta().app_seq = sent_;
  ++sent_;
  config_.from->send(std::move(packet));
  simulator.schedule_in(interval_, [this]() { send_next(); });
}

LayerCounts Workload::counts() const {
  LayerCounts c;
  for (const auto& source : sources_) c.offered += source->sent();
  c.delivered = delivered_;
  auto& tb = *testbed_;
  c.events = tb.sim().events_executed();
  for (int i = 0; i < tb.host_count(); ++i) {
    auto& link = tb.link_of(i);
    c.link_frames += link.tx_frames(0) + link.tx_frames(1);
    c.link_drops += link.dropped_frames();
  }
  for (int i = 0; i < tb.memory_server_count(); ++i) {
    const auto& st = tb.memory_server(i).rnic().stats();
    c.rnic_requests += st.requests_received;
    c.rnic_overflow += st.requests_dropped_overflow;
    c.rnic_naks += st.naks_sent;
  }
  const auto& sw = tb.tor().stats();
  c.sw_received = sw.received;
  c.sw_recirculated = sw.recirculated;
  c.sw_injected = sw.injected;
  c.pfc_xoff = sw.pfc_xoff_sent;
  c.tm_drops = tb.tor().tm().total_drops();
  if (capture_ != nullptr) {
    c.roce_frames = capture_->roce_frames;
    c.roce_bytes = capture_->roce_bytes;
  }
  primitive_counts(c);
  return c;
}

void Workload::begin_window() {
  if (capture_ == nullptr) return;
  capture_->recording = true;
  for (auto& source : sources_) source->record_flows(capture_);
}

void Workload::end_window() {
  if (capture_ == nullptr) return;
  capture_->recording = false;
  for (auto& source : sources_) source->record_flows(nullptr);
}

void Workload::install_sink(int index) {
  xmem::host::Host& sink = testbed_->host(index);
  sink.set_app([this](net::Packet&& packet, int) {
    const auto bytes = packet.bytes();
    if (bytes.size() < kProbeOffset + xmem::host::ProbeHeader::kBytes) return;
    const auto probe =
        xmem::host::ProbeHeader::read_from(bytes.subspan(kProbeOffset));
    ++delivered_;
    latency_.add(sim().now() - probe.sent_at);
    on_delivered(packet, probe);
  });
}

void Workload::stop_and_drain() {
  for (auto& source : sources_) source->stop();
  // Fixed 100 us steps keep the final tick a function of the model only.
  for (int step = 0; step < 20000 && !quiescent(); ++step) {
    flush();
    sim().run_until(sim().now() + sim::microseconds(100));
  }
  // Let the last re-injected or bounced frames reach the sink.
  sim().run_until(sim().now() + sim::milliseconds(1));
}

void Workload::digest(Digest& d) const {
  const LayerCounts c = counts();
  d.add("offered", c.offered);
  d.add("delivered", c.delivered);
  d.add("tm_drops", c.tm_drops);
  d.add("link_drops", c.link_drops);
  d.add("final_tick_ps", static_cast<std::uint64_t>(testbed_->sim().now()));
  d.add("remote_ops", c.remote_ops);
  d.add("retransmits", c.retransmits);
  d.add("fa_acked", c.fa_acked);
  d.add("cache_hits", c.cache_hits);
  latency_.fold(d, "pkt_latency");
}

void Workload::enable_tracing(TraceCapture& capture) {
  capture_ = &capture;
  auto& tb = *testbed_;
  for (int i = 0; i < tb.memory_server_count(); ++i) {
    tb.memory_server_link(i).set_tap(
        [cap = &capture](const net::Packet& packet, sim::Time, int) {
          if (!cap->recording || !net::parse_packet(packet).is_roce_v2()) {
            return;
          }
          ++cap->roce_frames;
          cap->roce_bytes += packet.size();
          if (cap->frames.size() < TraceCapture::kMaxFrames) {
            const auto bytes = packet.bytes();
            cap->frames.emplace_back(bytes.begin(), bytes.end());
          }
        });
  }
  capture.registry = std::make_unique<xmem::telemetry::MetricsRegistry>();
  capture.tracer = std::make_unique<xmem::telemetry::OpTracer>(tb.sim());
  auto& registry = *capture.registry;
  xmem::telemetry::register_sim_metrics(registry, tb.sim());
  tb.tor().register_metrics(registry, "switch");
  for (int i = 0; i < tb.host_count(); ++i) {
    const std::string name = "host" + std::to_string(i);
    tb.link_of(i).register_metrics(registry, "link/" + name);
    tb.host(i).register_metrics(registry, name);
  }
  for (int i = 0; i < tb.memory_server_count(); ++i) {
    tb.memory_server(i).rnic().register_metrics(
        registry, "rnic/server" + std::to_string(i));
  }
  attach_primitive(&registry, capture.tracer.get());
}

}  // namespace simbench
