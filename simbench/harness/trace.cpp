#include "trace.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>

#include "core/lookup_cache.hpp"
#include "net/checksum.hpp"
#include "roce/packet.hpp"
#include "sim/simulator.hpp"
#include "telemetry/json.hpp"

namespace simbench {
namespace {

/// Where the CRC replay stores its result, so the loop is not elided.
volatile std::uint32_t crc_sink = 0;

/// Repeat a replay until it has covered at least `min_units` of work,
/// so each timing spans tens of milliseconds however small the capture.
std::uint64_t reps_for(std::uint64_t units_per_pass, std::uint64_t min_units) {
  if (units_per_pass == 0) return 0;
  return std::max<std::uint64_t>(
      1, (min_units + units_per_pass - 1) / units_per_pass);
}

std::uint64_t captured_bytes(const TraceCapture& capture) {
  std::uint64_t bytes = 0;
  for (const auto& frame : capture.frames) bytes += frame.size();
  return bytes;
}

/// Nearest-rank percentile of an unsorted sample (sorted in place).
double percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

}  // namespace

int SpanLog::open(const std::string& name, int parent) {
  if (!enabled_) return -1;
  spans_.push_back({name, run_, parent, now_ns(), 0});
  return static_cast<int>(spans_.size() - 1);
}

void SpanLog::close(int id) {
  if (id >= 0) spans_[static_cast<std::size_t>(id)].end = now_ns();
}

int SpanLog::add(const std::string& name, std::int64_t start,
                 std::int64_t end, int parent) {
  if (!enabled_) return -1;
  spans_.push_back({name, run_, parent, start, end});
  return static_cast<int>(spans_.size() - 1);
}

bool SpanLog::write_json(const std::string& path) const {
  xmem::telemetry::json::JsonWriter w;
  w.begin_object();
  w.kv("clock", "steady_ns");
  w.key("spans");
  w.begin_array();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    w.begin_object();
    w.kv("id", static_cast<std::int64_t>(i));
    w.kv("name", std::string_view(s.name));
    w.kv("run", std::string_view(s.run));
    w.kv("parent", static_cast<std::int64_t>(s.parent));
    w.kv("start_ns", s.start);
    w.kv("end_ns", s.end);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  std::ofstream out(path);
  out << w.str() << '\n';
  return static_cast<bool>(out);
}

double replay_crc(const TraceCapture& capture, SpanLog& spans, int parent) {
  const std::uint64_t bytes = captured_bytes(capture);
  const std::uint64_t reps = reps_for(bytes, 64ull << 20);
  if (reps == 0) return 0.0;
  std::uint32_t sink = 0;
  const int span = spans.open("replay/net.crc32", parent);
  const std::int64_t start = now_ns();
  for (std::uint64_t r = 0; r < reps; ++r) {
    for (const auto& frame : capture.frames) sink ^= net::crc32(frame, sink);
  }
  const std::int64_t elapsed = now_ns() - start;
  spans.close(span);
  crc_sink = sink;
  return static_cast<double>(elapsed) /
         (static_cast<double>(bytes * reps) / 1024.0);
}

RoceReplay replay_roce(const TraceCapture& capture, SpanLog& spans,
                       int parent) {
  RoceReplay result;
  const std::uint64_t reps = reps_for(captured_bytes(capture), 32ull << 20);
  if (reps == 0) return result;
  std::vector<net::Packet> frames;
  for (const auto& bytes : capture.frames) frames.emplace_back(bytes);

  std::vector<xmem::roce::RoceMessage> messages(frames.size());
  int span = spans.open("replay/roce.parse", parent);
  std::int64_t start = now_ns();
  for (std::uint64_t r = 0; r < reps; ++r) {
    for (std::size_t i = 0; i < frames.size(); ++i) {
      auto msg = xmem::roce::parse_roce_packet(frames[i]);
      if (!msg) {
        result.ok = false;
        continue;
      }
      if (r == 0) messages[i] = std::move(*msg);
    }
  }
  const auto count = static_cast<double>(frames.size() * reps);
  result.parse_ns_per_frame = static_cast<double>(now_ns() - start) / count;
  spans.close(span);

  // Endpoints straight off the captured headers: MACs, IPv4 addresses
  // and the requester's UDP source port.
  auto endpoint = [](std::span<const std::uint8_t> b, std::size_t mac_at,
                     std::size_t ip_at) {
    std::array<std::uint8_t, 6> mac{};
    std::copy_n(b.begin() + static_cast<std::ptrdiff_t>(mac_at), 6,
                mac.begin());
    const std::uint32_t ip = (std::uint32_t{b[ip_at]} << 24) |
                             (std::uint32_t{b[ip_at + 1]} << 16) |
                             (std::uint32_t{b[ip_at + 2]} << 8) | b[ip_at + 3];
    return xmem::roce::RoceEndpoint{
        net::MacAddress(mac), net::Ipv4Address(ip),
        static_cast<std::uint16_t>((b[kUdpOffset] << 8) |
                                   b[kUdpOffset + 1])};
  };
  span = spans.open("replay/roce.build", parent);
  start = now_ns();
  for (std::uint64_t r = 0; r < reps; ++r) {
    for (std::size_t i = 0; i < frames.size(); ++i) {
      const auto b = frames[i].bytes();
      const net::Packet rebuilt = xmem::roce::build_roce_packet(
          endpoint(b, 6, 26), endpoint(b, 0, 30), messages[i]);
      if (rebuilt.size() != b.size()) result.ok = false;
    }
  }
  result.build_ns_per_frame = static_cast<double>(now_ns() - start) / count;
  spans.close(span);
  return result;
}

double replay_sim(std::uint64_t events, std::size_t live_depth,
                  std::uint64_t seed, SpanLog& spans, int parent) {
  events = std::min<std::uint64_t>(events, 2'000'000);
  if (events == 0) return 0.0;
  live_depth = std::max<std::size_t>(live_depth, 1);
  sim::Simulator simulator;
  sim::Rng rng(seed);
  // Each fired event schedules one successor a random delay ahead, so the
  // pending set holds at `live_depth` the whole run (the hold model).
  const std::uint64_t spread = 2 * live_depth * 1000;
  struct Hold {
    sim::Simulator* simulator;
    sim::Rng* rng;
    std::uint64_t spread;
    std::uint64_t remaining;
    void fire() {
      if (remaining == 0) return;
      --remaining;
      simulator->schedule_in(
          static_cast<sim::Time>(1 + rng->uniform(spread)),
          [this]() { fire(); });
    }
  } hold{&simulator, &rng, spread, events};
  for (std::size_t i = 0; i < live_depth; ++i) {
    simulator.schedule_at(static_cast<sim::Time>(rng.uniform(spread)),
                          [&hold]() { hold.fire(); });
  }
  const int span = spans.open("replay/sim.event_loop", parent);
  const std::int64_t start = now_ns();
  const std::uint64_t executed = simulator.run();
  const std::int64_t elapsed = now_ns() - start;
  spans.close(span);
  return static_cast<double>(elapsed) / static_cast<double>(executed);
}

CacheReplay replay_cache(const TraceCapture& capture, SpanLog& spans,
                         int parent) {
  CacheReplay result;
  const CacheSetup& setup = capture.cache;
  const std::uint64_t per_pass = capture.key_trace.size();
  const std::uint64_t reps = reps_for(per_pass, 2'000'000);
  if (reps == 0 || setup.capacity == 0) return result;
  xmem::core::LookupCache cache({.capacity = setup.capacity,
                                 .policy = setup.policy});
  xmem::switchsim::Action action;
  action.kind = xmem::switchsim::Action::Kind::kForward;
  const int span = spans.open("replay/core.lookup_cache", parent);
  const std::int64_t start = now_ns();
  for (std::uint64_t r = 0; r < reps; ++r) {
    for (const std::uint16_t port : capture.key_trace) {
      const auto& key = setup.keys[static_cast<std::size_t>(
          setup.port_to_key[port])];
      if (!cache.lookup(key, 0)) cache.insert(key, action, 0, 0, 0);
    }
  }
  const std::int64_t elapsed = now_ns() - start;
  spans.close(span);
  result.lookups = per_pass;
  result.ns_per_lookup =
      static_cast<double>(elapsed) / static_cast<double>(per_pass * reps);
  result.hits = cache.stats().hits / reps;
  return result;
}

OpLatency op_latency(const xmem::telemetry::OpTracer& tracer, sim::Time since,
                     Digest& digest) {
  const std::string json = tracer.chrome_trace_json();
  const double since_us = static_cast<double>(since) / 1e6;
  std::vector<double> durations;
  std::uint64_t dur_ns_sum = 0;
  for (std::size_t at = json.find("\"ph\":\"X\""); at != std::string::npos;
       at = json.find("\"ph\":\"X\"", at + 1)) {
    const std::size_t end = json.find('}', at);  // args object closes last
    const std::size_t ts = json.find("\"ts\":", at);
    const std::size_t dur = json.find("\"dur\":", at);
    const std::size_t ok = json.find("\"status\":\"ok\"", at);
    if (ts > end || dur > end || ok > end) continue;
    if (std::strtod(json.c_str() + ts + 5, nullptr) < since_us) continue;
    const double us = std::strtod(json.c_str() + dur + 6, nullptr);
    durations.push_back(us);
    dur_ns_sum += static_cast<std::uint64_t>(std::llround(us * 1000.0));
  }
  OpLatency result;
  result.ops = durations.size();
  result.p50_us = percentile(durations, 50);
  result.p99_us = percentile(durations, 99);
  digest.add("op_latency.count", result.ops);
  digest.add("op_latency.sum_ns", dur_ns_sum);
  digest.add("op_latency.p50_ns",
             static_cast<std::uint64_t>(std::llround(result.p50_us * 1000)));
  digest.add("op_latency.p99_ns",
             static_cast<std::uint64_t>(std::llround(result.p99_us * 1000)));
  return result;
}

}  // namespace simbench
