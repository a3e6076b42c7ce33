// The pieces every benchmark workload shares: a seeded open-loop tenant
// source, a tenant sink, the modelled-output digest, a snapshot of each
// layer's public counters, and the Workload base the harness drives.
//
// Everything here sits outside the simulator: it builds a Testbed through
// the public control-plane API, offers traffic through Host::send, and
// reads the layers back through their stats() and register_metrics /
// attach_telemetry hooks.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "control/testbed.hpp"
#include "core/lookup_cache.hpp"
#include "host/traffic_gen.hpp"
#include "net/ethernet.hpp"
#include "net/ipv4.hpp"
#include "net/packet.hpp"
#include "net/udp.hpp"
#include "sim/rng.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/op_tracer.hpp"

namespace simbench {

namespace sim = xmem::sim;
namespace net = xmem::net;

struct TraceCapture;

/// FNV-1a over named modelled statistics, with a readable transcript.
/// Two runs of one seed, or two commits of a speed-only change, must
/// produce the same transcript byte for byte.
class Digest {
 public:
  void add(const std::string& name, std::uint64_t value);
  [[nodiscard]] std::uint64_t hash() const { return hash_; }
  [[nodiscard]] const std::string& text() const { return text_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
  std::string text_;
};

/// Exact log-linear histogram of modelled latencies: 16 buckets per
/// power of two of nanoseconds. Integer buckets keep the digest exact,
/// and memory stays fixed however many packets a window delivers.
class LatencyBuckets {
 public:
  void add(sim::Time latency);
  void fold(Digest& digest, const std::string& name) const;

 private:
  static constexpr std::size_t kBuckets = 64 * 16;
  std::vector<std::uint64_t> buckets_ = std::vector<std::uint64_t>(kBuckets);
  std::uint64_t count_ = 0;
};

/// Public counters of every layer at one instant. A window's numbers
/// are the difference of two snapshots.
struct LayerCounts {
  std::uint64_t offered = 0;    // tenant packets handed to Host::send
  std::uint64_t delivered = 0;  // tenant packets at the sink
  std::uint64_t events = 0;     // Simulator::events_executed
  std::uint64_t link_frames = 0;
  std::uint64_t link_drops = 0;  // fault-model losses on any link
  std::uint64_t roce_frames = 0;  // memory-link tap (traced runs only)
  std::uint64_t roce_bytes = 0;
  std::uint64_t sw_received = 0;
  std::uint64_t sw_recirculated = 0;
  std::uint64_t sw_injected = 0;
  std::uint64_t tm_drops = 0;
  std::uint64_t pfc_xoff = 0;
  std::uint64_t rnic_requests = 0;
  std::uint64_t rnic_overflow = 0;
  std::uint64_t rnic_naks = 0;
  std::uint64_t remote_ops = 0;  // WRITE + READ + atomic requests posted
  std::uint64_t retransmits = 0;
  std::uint64_t sampled = 0;
  std::uint64_t fa_sent = 0;
  std::uint64_t fa_acked = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_lookups = 0;
  std::uint64_t cache_invalidations = 0;

  [[nodiscard]] LayerCounts operator-(const LayerCounts& base) const;
};

/// Open-loop UDP source: one frame every frame-time at `rate`, optionally
/// gated into `burst`-long on-periods every `period`. Each frame carries
/// a host::ProbeHeader {per-source sequence, send time}; its UDP source
/// port names the flow the workload's FlowFn picked.
class TenantSource {
 public:
  struct Config {
    xmem::host::Host* from = nullptr;
    net::MacAddress dst_mac;
    net::Ipv4Address dst_ip;
    std::size_t frame_bytes = 64;
    sim::Bandwidth rate = 0;
    sim::Time burst = 0;  // 0 = always on
    sim::Time period = 0;
    sim::Time start = 0;
  };
  using FlowFn = std::function<std::uint16_t()>;

  TenantSource(Config config, FlowFn flow);
  TenantSource(const TenantSource&) = delete;
  TenantSource& operator=(const TenantSource&) = delete;

  void start();
  void stop() { running_ = false; }
  [[nodiscard]] std::uint64_t sent() const { return sent_; }
  /// Append every chosen flow port to the capture's key trace (traced
  /// windows only); nullptr stops recording.
  void record_flows(TraceCapture* capture) { capture_ = capture; }

  static constexpr std::uint16_t kDstPort = 9000;

 private:
  void send_next();

  Config config_;
  FlowFn flow_;
  sim::Time interval_ = 0;
  std::size_t payload_bytes_ = 0;
  std::uint64_t sent_ = 0;
  bool running_ = false;
  TraceCapture* capture_ = nullptr;
};

/// Lookup-cache configuration a workload runs with, so the trace replay
/// can build an identical cache.
struct CacheSetup {
  std::size_t capacity = 0;
  using Policy = xmem::core::LookupCache::Policy;
  Policy policy = Policy::kLru;
  std::vector<std::vector<std::uint8_t>> keys;
  std::vector<int> port_to_key;  // flow port -> index into keys, or -1
};

/// What a traced episode collects besides timings; owned by the harness.
struct TraceCapture {
  /// RoCE frames copied off the memory-server links, up to kMaxFrames.
  std::vector<std::vector<std::uint8_t>> frames;
  static constexpr std::size_t kMaxFrames = 4096;
  std::uint64_t roce_frames = 0;
  std::uint64_t roce_bytes = 0;
  /// Flow ports in generation order.
  std::vector<std::uint16_t> key_trace;
  bool recording = false;  // set only inside the measured window
  std::unique_ptr<xmem::telemetry::MetricsRegistry> registry;
  std::unique_ptr<xmem::telemetry::OpTracer> tracer;
  /// The workload's lookup cache, copied after populate (capacity 0 when
  /// the workload has none).
  CacheSetup cache;
};

/// One benchmark scenario. The harness calls, in order: build_testbed,
/// build_pool, populate, start_traffic (then warms up), run slices,
/// stop_and_drain, failures, digest. A fresh object serves each episode.
class Workload {
 public:
  struct Shape {
    sim::Time warmup = 0;  // simulated time before the first slice
    sim::Time slice = 0;   // simulated time per measured slice
    int slices = 0;        // slices per episode
  };

  virtual ~Workload() = default;

  [[nodiscard]] virtual Shape shape() const = 0;
  virtual void build_testbed() = 0;
  /// Channel registration on the memory servers plus the primitive.
  virtual void build_pool() = 0;
  /// Remote-table population by the control plane (may be empty).
  virtual void populate() {}
  virtual void start_traffic() = 0;

  [[nodiscard]] sim::Simulator& sim() { return testbed_->sim(); }
  [[nodiscard]] LayerCounts counts() const;
  /// Bracket the measured window: a traced episode records its frames
  /// and key trace only in between.
  void begin_window();
  void end_window();

  /// Stop the sources and run the model until every primitive is
  /// quiescent and the tenant path is empty.
  void stop_and_drain();
  /// Tenant packets whose modelled outcome breaks the workload's
  /// invariant; `detail` names what broke.
  [[nodiscard]] virtual std::uint64_t failures(std::string& detail) = 0;
  /// Modelled statistics that a speed-only change must keep exact.
  virtual void digest(Digest& digest) const;

  /// Traced episodes only: taps on the memory-server links, registry
  /// and tracer on every layer, and the key trace. Call after build_pool.
  void enable_tracing(TraceCapture& capture);
  [[nodiscard]] virtual const CacheSetup* cache_setup() const {
    return nullptr;
  }

 protected:
  virtual void primitive_counts(LayerCounts& counts) const = 0;
  [[nodiscard]] virtual bool quiescent() const = 0;
  virtual void flush() {}
  virtual void attach_primitive(xmem::telemetry::MetricsRegistry* registry,
                                xmem::telemetry::OpTracer* tracer) = 0;
  /// Per delivered tenant packet, after the sink's own accounting.
  virtual void on_delivered(const net::Packet& packet,
                            const xmem::host::ProbeHeader& probe) {
    (void)packet;
    (void)probe;
  }
  /// Make the tenant sink host `index` of the testbed.
  void install_sink(int index);
  /// Sum of RdmaChannel request counters over a primitive's shards.
  template <typename ChannelSet>
  static std::uint64_t channel_ops(const ChannelSet& channels) {
    std::uint64_t ops = 0;
    for (std::size_t s = 0; s < channels.size(); ++s) {
      const auto& st = channels.at(s).stats();
      ops += st.writes_sent + st.reads_sent + st.atomics_sent;
    }
    return ops;
  }

  std::unique_ptr<xmem::control::Testbed> testbed_;
  std::vector<std::unique_ptr<TenantSource>> sources_;
  TraceCapture* capture_ = nullptr;
  std::uint64_t delivered_ = 0;
  LatencyBuckets latency_;
};

/// A workload by name; nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed);
/// Names make_workload accepts.
const std::vector<std::string>& workload_names();

/// UDP source port of the first tenant flow.
inline constexpr std::uint16_t kFlowPortBase = 10000;
/// Offsets into a tenant frame: its UDP header and, after it, the
/// ProbeHeader.
inline constexpr std::size_t kUdpOffset =
    net::kEthernetHeaderBytes + net::kIpv4HeaderBytes;
inline constexpr std::size_t kProbeOffset = kUdpOffset + net::kUdpHeaderBytes;

}  // namespace simbench
