// The benchmark's workloads. Every knob is pinned here; the only
// input is the seed, which drives the generators, the start jitter and
// the fault RNGs. Modelled traffic is open loop at fixed simulated rates.
#include <unordered_set>

#include "control/channel_controller.hpp"
#include "core/lookup_table.hpp"
#include "core/packet_buffer.hpp"
#include "core/state_store.hpp"
#include "faults/fault_scheduler.hpp"
#include "net/flow.hpp"
#include "rnic/memory.hpp"
#include "workload.hpp"

namespace simbench {
namespace {

namespace control = xmem::control;
namespace core = xmem::core;
namespace host = xmem::host;

/// UDP source port of a tenant frame.
std::uint16_t flow_port(const net::Packet& packet) {
  const auto b = packet.bytes();
  return static_cast<std::uint16_t>((b[kUdpOffset] << 8) |
                                    b[kUdpOffset + 1]);
}

/// Sum of the u64 counters in every shard's region.
std::uint64_t remote_counter_sum(
    control::Testbed& tb, const std::vector<control::RdmaChannelConfig>& pool) {
  std::uint64_t total = 0;
  for (std::size_t s = 0; s < pool.size(); ++s) {
    const auto region = control::ChannelController::region_bytes(
        tb.memory_server(static_cast<int>(s)), pool[s]);
    for (std::size_t i = 0; i + 8 <= region.size(); i += 8) {
      total += xmem::rnic::load_le64(region.subspan(i, 8));
    }
  }
  return total;
}

// ---------------------------------------------------------------------
// incast_pktbuf: several line-rate senders converge on one 40 Gb/s port
// in periodic bursts; the surplus is diverted into a remote packet
// buffer striped over the memory servers and drained back in FIFO order.
// The bursts leave idle time between them, so the ring empties every
// period and the window is steady rather than an ever-growing backlog.
class IncastPktbuf final : public Workload {
 public:
  static constexpr int kSenders = 4;
  static constexpr int kServers = 4;
  static constexpr int kReceiver = kSenders;

  explicit IncastPktbuf(std::uint64_t seed) : rng_(seed) {}

  Shape shape() const override {
    return {.warmup = kPeriod * 6, .slice = sim::microseconds(10),
            .slices = 1200};
  }

  void build_testbed() override {
    control::Testbed::Config cfg;
    cfg.hosts = kSenders + 1;
    cfg.memory_servers = kServers;
    testbed_ = std::make_unique<control::Testbed>(cfg);
  }

  void build_pool() override {
    pool_ = testbed_->setup_memory_pool(
        {.region_bytes = 8 * static_cast<std::size_t>(sim::kMiB)});
    pb_ = std::make_unique<core::PacketBufferPrimitive>(
        testbed_->tor(), pool_,
        core::PacketBufferPrimitive::Config{
            .watch_port = testbed_->port_of(kReceiver),
            .divert_threshold_bytes = 100 * 1500,
            .resume_threshold_bytes = 30 * 1500,
            .entry_bytes = 1536,
        });
  }

  void start_traffic() override {
    install_sink(kReceiver);
    expected_.assign(kSenders, 0);
    auto& rx = testbed_->host(kReceiver);
    for (int i = 0; i < kSenders; ++i) {
      const auto port = static_cast<std::uint16_t>(kFlowPortBase + i);
      sources_.push_back(std::make_unique<TenantSource>(
          TenantSource::Config{
              .from = &testbed_->host(i),
              .dst_mac = rx.mac(),
              .dst_ip = rx.ip(),
              .frame_bytes = 1500,
              .rate = sim::gbps(40),
              .burst = kBurst,
              .period = kPeriod,
              .start = static_cast<sim::Time>(
                  rng_.uniform(static_cast<std::uint64_t>(
                      sim::microseconds(5))))},
          [port]() { return port; }));
    }
    for (auto& source : sources_) source->start();
  }

  std::uint64_t failures(std::string& detail) override {
    const LayerCounts c = counts();
    const std::uint64_t lost = c.offered - c.delivered;
    detail = "lost=" + std::to_string(lost) +
             " out_of_order=" + std::to_string(reordered_);
    return lost + reordered_;
  }

  void digest(Digest& d) const override {
    Workload::digest(d);
    d.add("pb_stored", pb_->stats().stored);
    d.add("pb_loaded", pb_->stats().loaded);
    d.add("pb_max_ring_depth",
          static_cast<std::uint64_t>(pb_->stats().max_ring_depth));
  }

 protected:
  void primitive_counts(LayerCounts& c) const override {
    c.remote_ops = channel_ops(pb_->channels());
    c.retransmits = pb_->stats().read_retries + pb_->stats().write_retries;
  }
  bool quiescent() const override { return pb_->quiescent(); }
  void attach_primitive(xmem::telemetry::MetricsRegistry* registry,
                        xmem::telemetry::OpTracer* tracer) override {
    pb_->attach_telemetry(registry, tracer, "pktbuf");
  }
  void on_delivered(const net::Packet& packet,
                    const host::ProbeHeader& probe) override {
    auto& expected = expected_.at(flow_port(packet) - kFlowPortBase);
    if (probe.sequence < expected) {
      ++reordered_;  // per-flow FIFO broken
    } else {
      expected = probe.sequence + 1;  // gaps show up as lost
    }
  }

 private:
  // 4 x 40 Gb/s for 60 us every 300 us: 1.2 MB per burst, a 32 Gb/s
  // average into the 40 Gb/s port, ~0.9 MB diverted per burst.
  static constexpr sim::Time kBurst = sim::microseconds(60);
  static constexpr sim::Time kPeriod = sim::microseconds(300);

  sim::Rng rng_;
  std::vector<control::RdmaChannelConfig> pool_;
  std::unique_ptr<core::PacketBufferPrimitive> pb_;
  std::vector<std::uint64_t> expected_;
  std::uint64_t reordered_ = 0;
};

// ---------------------------------------------------------------------
// State store: per-flow Fetch-and-Add counters sharded over the memory
// servers. `statestore_64b` runs the smallest frames at line rate with
// combining on lossless links; `statestore_lossy` runs the reliable
// store with adaptive RTO under Gilbert-Elliott burst loss on every
// memory-server link, driven through the faults module.
class StateStore final : public Workload {
 public:
  struct Params {
    int servers = 4;
    sim::Bandwidth rate = 0;
    std::uint64_t combining_window = 1;
    /// Reliable store with adaptive RTO, under burst loss on the memory
    /// links; otherwise the unreliable store on lossless links.
    bool lossy = false;
    sim::Time slice = 0;
    int slices = 0;
  };
  static constexpr std::uint64_t kFlows = 4096;
  /// Gilbert-Elliott loss per memory-link frame, and frames per burst.
  static constexpr double kMeanLoss = 0.01;
  static constexpr double kMeanBurst = 2;

  StateStore(Params params, std::uint64_t seed)
      : params_(params), rng_(seed), flow_rng_(rng_.split(1)) {}

  Shape shape() const override {
    // 4 ms of warm-up: the adaptive RTO settles, and set-up is mostly
    // simulation rather than a few milliseconds of allocation.
    return {.warmup = sim::milliseconds(4), .slice = params_.slice,
            .slices = params_.slices};
  }

  void build_testbed() override {
    control::Testbed::Config cfg;
    cfg.hosts = 2;
    cfg.memory_servers = params_.servers;
    testbed_ = std::make_unique<control::Testbed>(cfg);
  }

  void build_pool() override {
    const auto per_shard =
        kFlows / static_cast<std::uint64_t>(params_.servers) * 8;
    pool_ = testbed_->setup_memory_pool(
        {.region_bytes = static_cast<std::size_t>(per_shard),
         .tolerate_psn_gaps = !params_.lossy});
    core::StateStorePrimitive::Config cfg;
    cfg.combining_window = params_.combining_window;
    cfg.reliable = params_.lossy;
    cfg.adaptive_rto.enabled = params_.lossy;
    cfg.sample_fn =
        [](const net::Packet& p) -> std::optional<std::uint64_t> {
      const auto tuple = net::extract_five_tuple(p);
      if (!tuple || tuple->dst_port != TenantSource::kDstPort) {
        return std::nullopt;
      }
      return tuple->src_port - kFlowPortBase;
    };
    store_ = std::make_unique<core::StateStorePrimitive>(testbed_->tor(),
                                                         pool_, cfg);
    if (params_.lossy) {
      // Near-total loss inside a burst; the chain starts good, so the
      // warm-up measures the RTT first.
      xmem::topo::GilbertElliott ge;
      ge.loss_bad = 0.9;
      ge.exit_bad = 1.0 / kMeanBurst;
      const double pi_bad = kMeanLoss / ge.loss_bad;
      ge.enter_bad = ge.exit_bad * pi_bad / (1.0 - pi_bad);
      xmem::faults::FaultPlan plan;
      plan.seed = rng_.stream_seed(2);
      // Loss runs from inside the warm-up to the end of the window; the
      // drain runs on clean links, so exactly-once is checked after the
      // recovery path has had to work and then been given the chance to
      // finish.
      const Shape sh = shape();
      for (int s = 0; s < params_.servers; ++s) {
        plan.events.push_back(xmem::faults::FaultEvent::burst_loss(
            sim::microseconds(100), s, ge));
        plan.events.push_back(xmem::faults::FaultEvent::clear_link(
            sh.warmup + sh.slice * sh.slices, s));
      }
      faults_ = std::make_unique<xmem::faults::FaultScheduler>(
          testbed_->sim(), plan);
      for (int s = 0; s < params_.servers; ++s) {
        faults_->add_link(testbed_->memory_server_link(s));
      }
      faults_->start();
    }
  }

  void start_traffic() override {
    install_sink(1);
    auto& rx = testbed_->host(1);
    sources_.push_back(std::make_unique<TenantSource>(
        TenantSource::Config{.from = &testbed_->host(0),
                             .dst_mac = rx.mac(),
                             .dst_ip = rx.ip(),
                             .frame_bytes = 60,
                             .rate = params_.rate},
        [this]() {
          return static_cast<std::uint16_t>(
              kFlowPortBase + flow_rng_.uniform(kFlows));
        }));
    sources_.back()->start();
  }

  std::uint64_t failures(std::string& detail) override {
    const LayerCounts c = counts();
    const std::uint64_t counted = remote_counter_sum(*testbed_, pool_);
    const std::uint64_t miscounted =
        counted > c.sampled ? counted - c.sampled : c.sampled - counted;
    const std::uint64_t unsampled = c.offered - c.sampled;
    const std::uint64_t lost = c.offered - c.delivered;
    detail = "remote_sum=" + std::to_string(counted) +
             " sampled=" + std::to_string(c.sampled) +
             " unsampled=" + std::to_string(unsampled) +
             " lost=" + std::to_string(lost) +
             " outstanding=" + std::to_string(store_->outstanding()) +
             " unflushed=" + std::to_string(store_->unflushed());
    for (std::size_t s = 0; s < store_->shard_count(); ++s) {
      const auto& channels = store_->channels();
      detail += " shard" + std::to_string(s) +
                (channels.health(s) == core::ChannelSet::Health::kUp ? "=up"
                                                                    : "=down") +
                "/downs:" +
                std::to_string(channels.shard_stats(s).down_transitions);
    }
    return miscounted + unsampled + lost;
  }

  void digest(Digest& d) const override {
    Workload::digest(d);
    d.add("fa_sent", store_->stats().fetch_adds_sent);
    d.add("accumulated", store_->stats().accumulated);
    d.add("naks", store_->stats().naks_received);
  }

 protected:
  void primitive_counts(LayerCounts& c) const override {
    const auto& st = store_->stats();
    c.remote_ops = channel_ops(store_->channels());
    c.retransmits = st.retransmits;
    c.sampled = st.sampled_packets;
    c.fa_sent = st.fetch_adds_sent;
    c.fa_acked = st.acks_received;
  }
  bool quiescent() const override { return store_->quiescent(); }
  void flush() override { store_->flush(); }
  void attach_primitive(xmem::telemetry::MetricsRegistry* registry,
                        xmem::telemetry::OpTracer* tracer) override {
    store_->attach_telemetry(registry, tracer, "statestore");
    if (faults_) faults_->register_metrics(*registry, "faults");
  }

 private:
  Params params_;
  sim::Rng rng_;
  sim::Rng flow_rng_;
  std::vector<control::RdmaChannelConfig> pool_;
  std::unique_ptr<core::StateStorePrimitive> store_;
  std::unique_ptr<xmem::faults::FaultScheduler> faults_;
};

// ---------------------------------------------------------------------
// lookup_zipf: Zipf(0.99) flow keys over a remote lookup table of 2 KB
// entries behind a ~1% segmented-LFU LookupCache. Every entry's action
// stamps a DSCP value of its own key, so the sink can check that each
// packet got its key's action.
class LookupZipf final : public Workload {
 public:
  static constexpr int kServers = 2;
  static constexpr std::uint64_t kKeys = 4096;
  static constexpr std::size_t kEntryBytes = 2048;
  static constexpr std::size_t kCacheEntries = kKeys / 100;
  static constexpr auto kCachePolicy = core::LookupCache::Policy::kLfu;

  explicit LookupZipf(std::uint64_t seed)
      : rng_(seed),
        flow_rng_(rng_.split(1)),
        flow_zipf_(kKeys, 0.99, flow_rng_) {}

  Shape shape() const override {
    return {.warmup = sim::milliseconds(2), .slice = sim::microseconds(15),
            .slices = 1200};
  }

  void build_testbed() override {
    control::Testbed::Config cfg;
    cfg.hosts = 2;
    cfg.memory_servers = kServers;
    testbed_ = std::make_unique<control::Testbed>(cfg);
  }

  void build_pool() override {
    pool_ = testbed_->setup_memory_pool(
        {.region_bytes = 16 * static_cast<std::size_t>(sim::kMiB)});
    lt_ = std::make_unique<core::LookupTablePrimitive>(
        testbed_->tor(), pool_,
        core::LookupTablePrimitive::Config{
            .mode = core::LookupTablePrimitive::Mode::kBounce,
            .entry_bytes = kEntryBytes,
            .cache_capacity = kCacheEntries,
            .cache_policy = kCachePolicy});
  }

  /// Pick kKeys flows whose table indices are pairwise distinct (the
  /// remote table is address-based, so colliding keys would shadow each
  /// other) and install every entry.
  void populate() override {
    auto& tb = *testbed_;
    cache_.capacity = kCacheEntries;
    cache_.policy = kCachePolicy;
    cache_.port_to_key.assign(1 << 16, -1);
    std::unordered_set<std::uint64_t> used;
    for (std::uint32_t port = kFlowPortBase; cache_.keys.size() < kKeys;
         ++port) {
      auto key = flow_key(static_cast<std::uint16_t>(port));
      const auto index = core::LookupTablePrimitive::index_for_key(
          key, lt_->table_entries(), kHashSeed);
      if (!used.insert(index).second) continue;
      cache_.port_to_key[port] = static_cast<int>(cache_.keys.size());
      ports_.push_back(static_cast<std::uint16_t>(port));
      cache_.keys.push_back(std::move(key));
    }
    for (std::size_t s = 0; s < pool_.size(); ++s) {
      regions_.push_back(control::ChannelController::region_bytes(
          tb.memory_server(static_cast<int>(s)), pool_[s]));
    }
    for (std::uint64_t k = 0; k < kKeys; ++k) install(k);
  }

  void start_traffic() override {
    install_sink(1);
    auto& rx = testbed_->host(1);
    // 2 M lookups/s of 256 B frames: the miss stream stays well under
    // the memory links' 2 KB READ capacity, so nothing queues without
    // bound and the model is lossless.
    sources_.push_back(std::make_unique<TenantSource>(
        TenantSource::Config{.from = &testbed_->host(0),
                             .dst_mac = rx.mac(),
                             .dst_ip = rx.ip(),
                             .frame_bytes = 256,
                             .rate = sim::gbps(4.096)},
        [this]() { return ports_[flow_zipf_()]; }));
    sources_.back()->start();
  }

  std::uint64_t failures(std::string& detail) override {
    const LayerCounts c = counts();
    const std::uint64_t lost = c.offered - c.delivered;
    detail = "lost=" + std::to_string(lost) +
             " wrong_action=" + std::to_string(wrong_action_);
    return lost + wrong_action_;
  }

  void digest(Digest& d) const override {
    Workload::digest(d);
    d.add("remote_lookups", lt_->stats().remote_lookups);
    d.add("cache_inserts", lt_->stats().cache_inserts);
  }

  const CacheSetup* cache_setup() const override { return &cache_; }

 protected:
  void primitive_counts(LayerCounts& c) const override {
    const auto& st = lt_->stats();
    c.remote_ops = channel_ops(lt_->channels());
    c.cache_hits = st.cache_hits;
    c.cache_lookups = st.cache_hits + st.remote_lookups;
    c.cache_invalidations = lt_->cache().stats().invalidations;
  }
  bool quiescent() const override { return lt_->outstanding() == 0; }
  void attach_primitive(xmem::telemetry::MetricsRegistry* registry,
                        xmem::telemetry::OpTracer* tracer) override {
    lt_->attach_telemetry(registry, tracer, "lookup");
  }
  void on_delivered(const net::Packet& packet,
                    const host::ProbeHeader& /*probe*/) override {
    const int key = cache_.port_to_key[flow_port(packet)];
    // DSCP: the upper six bits of the IPv4 ToS byte.
    const auto dscp = static_cast<std::uint8_t>(
        packet.bytes()[net::kEthernetHeaderBytes + 1] >> 2);
    if (key < 0 || dscp != key_dscp(static_cast<std::uint64_t>(key))) {
      ++wrong_action_;
    }
  }

 private:
  static constexpr std::uint64_t kHashSeed = 0x9e3779b97f4a7c15ULL;

  std::vector<std::uint8_t> flow_key(std::uint16_t port) const {
    net::FiveTuple t;
    t.src_ip = testbed_->host(0).ip();
    t.dst_ip = testbed_->host(1).ip();
    t.src_port = port;
    t.dst_port = TenantSource::kDstPort;
    t.protocol = 17;
    const auto k = t.key_bytes();
    return {k.begin(), k.end()};
  }

  /// DSCP 1..63 for a key.
  static std::uint8_t key_dscp(std::uint64_t key) {
    return static_cast<std::uint8_t>(1 + key * 7 % 63);
  }

  void install(std::uint64_t key) {
    xmem::switchsim::Action action;
    action.kind = xmem::switchsim::Action::Kind::kSetDscp;
    action.dscp = key_dscp(key);
    action.port = static_cast<std::uint16_t>(testbed_->port_of(1));
    const std::span<const std::span<std::uint8_t>> regions(regions_);
    (void)core::LookupTablePrimitive::install_entry_sharded(
        regions, kEntryBytes, cache_.keys[key], action, kHashSeed);
  }

  sim::Rng rng_;
  sim::Rng flow_rng_;
  sim::ZipfGenerator flow_zipf_;
  std::vector<control::RdmaChannelConfig> pool_;
  std::vector<std::span<std::uint8_t>> regions_;
  std::unique_ptr<core::LookupTablePrimitive> lt_;
  CacheSetup cache_;
  std::vector<std::uint16_t> ports_;
  std::uint64_t wrong_action_ = 0;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "incast_pktbuf", "statestore_64b", "lookup_zipf", "statestore_lossy"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "incast_pktbuf") return std::make_unique<IncastPktbuf>(seed);
  if (name == "statestore_64b") {
    // Minimum-size frames (60 B + FCS = 64 B) at 28.5 Gb/s of frame bits
    // fill 99.7% of the 40 Gb/s wire once preamble and inter-frame gap
    // are added (~59.4 Mpps).
    return std::make_unique<StateStore>(
        StateStore::Params{.rate = sim::gbps(28.5),
                           .combining_window = 8,
                           .slice = sim::microseconds(5),
                           .slices = 1000},
        seed);
  }
  if (name == "statestore_lossy") {
    // Reliable store with adaptive RTO under 1% Gilbert-Elliott loss on
    // every memory-server link; bursts of 2 frames on average drive
    // timeouts, go-back-N replay and duplicate suppression.
    return std::make_unique<StateStore>(
        StateStore::Params{.servers = 2,
                           .rate = sim::gbps(10),
                           .lossy = true,
                           .slice = sim::microseconds(10),
                           .slices = 1500},
        seed);
  }
  if (name == "lookup_zipf") return std::make_unique<LookupZipf>(seed);
  return nullptr;
}

}  // namespace simbench
