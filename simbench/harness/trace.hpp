// Tracing from outside the program: host-time spans recorded by the
// harness around its calls into the simulator, and replays of a traced
// window's captured inputs through each layer's public entry points.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "telemetry/op_tracer.hpp"
#include "workload.hpp"

namespace simbench {

/// Host-clock nanoseconds since an arbitrary process-wide origin.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// In-memory span log: name, start, end, parent span and run id. Spans
/// are kept until write_json() at exit; a disabled log records nothing.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  void set_run(std::string run) { run_ = std::move(run); }
  /// Open a span; returns its id (-1 when disabled).
  int open(const std::string& name, int parent = -1);
  void close(int id);
  /// Record an already-timed interval.
  int add(const std::string& name, std::int64_t start, std::int64_t end,
          int parent);
  [[nodiscard]] std::size_t size() const { return spans_.size(); }
  bool write_json(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    std::string run;
    int parent = -1;
    std::int64_t start = 0;
    std::int64_t end = 0;
  };
  bool enabled_;
  std::string run_;
  std::vector<Span> spans_;
};

/// net::crc32 over the captured RoCE frames; ns per KiB hashed.
double replay_crc(const TraceCapture& capture, SpanLog& spans, int parent);

struct RoceReplay {
  double parse_ns_per_frame = 0;
  double build_ns_per_frame = 0;
  bool ok = true;  // every frame parsed and rebuilt to its own length
};
/// roce::parse_roce_packet then roce::build_roce_packet on each frame.
RoceReplay replay_roce(const TraceCapture& capture, SpanLog& spans,
                       int parent);

/// The window's event count replayed through a fresh sim::Simulator held
/// at `live_depth` pending events; ns per executed event.
double replay_sim(std::uint64_t events, std::size_t live_depth,
                  std::uint64_t seed, SpanLog& spans, int parent);

struct CacheReplay {
  double ns_per_lookup = 0;
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
};
/// The recorded key trace through a core::LookupCache configured as the
/// workload's, filling on every miss.
CacheReplay replay_cache(const TraceCapture& capture, SpanLog& spans,
                         int parent);

struct OpLatency {
  std::uint64_t ops = 0;
  double p50_us = 0;
  double p99_us = 0;
};
/// Modelled latency of every op the OpTracer closed "ok" that started at
/// or after `since` (read from its Chrome trace export).
OpLatency op_latency(const xmem::telemetry::OpTracer& tracer, sim::Time since,
                     Digest& digest);

}  // namespace simbench
