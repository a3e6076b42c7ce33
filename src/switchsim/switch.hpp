// The programmable switch: parser -> ingress stages -> traffic manager ->
// egress stages -> port transmit, plus the packet operations
// (inject / clone / truncate / recirculate) the remote-memory primitives
// are built from.
//
// This is a behavioural Tofino-class model: stages execute in order with
// a fixed pipeline latency budget rather than cycle-accurate timing; see
// DESIGN.md §6.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "net/address.hpp"
#include "switchsim/pipeline.hpp"
#include "switchsim/table.hpp"
#include "switchsim/traffic_manager.hpp"
#include "topo/node.hpp"

namespace xmem::switchsim {

class ProgrammableSwitch : public topo::Node {
 public:
  struct Config {
    /// Parser + ingress + deparser + egress latency, applied between
    /// frame arrival and traffic-manager enqueue.
    sim::Time pipeline_latency = sim::nanoseconds(700);
    /// Delay for a recirculated packet to re-enter ingress.
    sim::Time recirculate_latency = sim::nanoseconds(400);
    TrafficManager::Config tm;
  };

  struct Stats {
    std::uint64_t received = 0;
    std::uint64_t parse_errors = 0;
    std::uint64_t forwarded = 0;
    std::uint64_t stage_drops = 0;
    std::uint64_t consumed = 0;
    std::uint64_t no_route_drops = 0;
    std::uint64_t buffer_drops = 0;
    std::uint64_t injected = 0;
    std::uint64_t recirculated = 0;
    std::uint64_t pfc_xoff_sent = 0;
    std::uint64_t pfc_xon_sent = 0;
  };

  ProgrammableSwitch(sim::Simulator& simulator, std::string name,
                     Config config);

  /// Must be called once after all links are attached: sizes the traffic
  /// manager and wires port service callbacks.
  void setup();
  [[nodiscard]] bool ready() const { return tm_ != nullptr; }

  /// --- Pipeline programming ------------------------------------------
  void add_ingress_stage(std::string name,
                         std::function<void(PipelineContext&)> fn);
  void add_egress_stage(std::string name,
                        std::function<void(PipelineContext&)> fn);

  /// Built-in L2 forwarding, consulted when no stage picked a port.
  void set_l2_route(const net::MacAddress& mac, int port);

  /// Turn on shared-buffer PFC (§2.1's incumbent fix): when buffer usage
  /// crosses `xoff_bytes` the switch XOFFs every port; once it drains to
  /// `xon_bytes` it XONs them. Call after setup(). `priority_class`
  /// (0..7) selects the 802.1Qbb class the pause targets — put RoCE on
  /// its own class so DCQCN's lossless backstop does not pause unrelated
  /// tenants. Note the inherent head-of-line blocking either way: the
  /// port MAC model pauses the whole transmitter, victims included — the
  /// behaviour bench/a4 quantifies and Port::hol_blocked_packets()
  /// counts.
  void enable_pfc(std::int64_t xoff_bytes, std::int64_t xon_bytes,
                  int priority_class = 0);
  [[nodiscard]] bool pfc_paused() const { return pfc_paused_; }

  /// Tag every dequeued frame with an INT hop record covering its
  /// traffic-manager residency (ingress = TM enqueue, egress = dequeue)
  /// and the egress queue depth in bytes left behind it.
  void enable_int(std::uint16_t hop_id) {
    int_enabled_ = true;
    int_hop_id_ = hop_id;
  }
  void disable_int() { int_enabled_ = false; }
  [[nodiscard]] bool int_enabled() const { return int_enabled_; }

  /// Where the built-in L2 table would send this frame (stages use this
  /// to learn a packet's destination before deciding to divert it).
  [[nodiscard]] std::optional<int> l2_route_for(const net::Packet& p) const;

  /// --- Packet operations for primitives ------------------------------
  /// Enqueue a pipeline-crafted packet for egress on `port`.
  void inject(net::Packet&& packet, int port);
  /// Re-run ingress for `packet` after the recirculation delay; its
  /// ingress_port is kRecirculatePort.
  void recirculate(net::Packet&& packet);

  /// --- Introspection --------------------------------------------------
  [[nodiscard]] TrafficManager& tm() { return *tm_; }
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] const Config& config() const { return config_; }

  /// Register every Stats field under `<prefix>/...` and delegate the
  /// traffic manager's per-port metrics to `<prefix>/tm/...`. Requires
  /// setup() to have run.
  void register_metrics(telemetry::MetricsRegistry& registry,
                        const std::string& prefix);

  // topo::Node
  void receive(net::Packet&& packet, int port) override;

 private:
  void run_ingress(net::Packet&& packet, int port);
  void resolve_l2(PipelineContext& ctx);
  void enqueue_for_egress(net::Packet&& packet, int port);
  void service_port(int port);

  void pfc_broadcast(bool xoff);

  Config config_;
  std::vector<Stage> ingress_stages_;
  std::vector<Stage> egress_stages_;
  std::unordered_map<net::MacAddress, int> l2_routes_;
  std::unique_ptr<TrafficManager> tm_;
  bool int_enabled_ = false;
  std::uint16_t int_hop_id_ = 0;
  bool pfc_enabled_ = false;
  bool pfc_paused_ = false;
  std::int64_t pfc_xoff_bytes_ = 0;
  std::int64_t pfc_xon_bytes_ = 0;
  int pfc_class_ = 0;
  Stats stats_;
};

}  // namespace xmem::switchsim
