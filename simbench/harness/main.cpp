// simbench: the repository's end-to-end benchmark harness.
//
//   simbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Runs one workload in this single-threaded process. An episode builds a
// fresh Testbed (timed set-up: testbed, pool, populate, warm-up), runs a
// fixed number of fixed simulated-time slices through
// Simulator::run_until (each slice's host time is one sample), drains,
// and checks the workload's invariants. Episodes repeat until --seconds
// of measured window have passed; every episode of one seed is the same
// modelled run, so its digest must repeat exactly.
//
// --trace 0 prints the end-to-end metrics. --trace 1 alternates untraced
// and traced episodes, prints the per-layer metrics (counts from the
// traced window, host time from replays of its captured inputs) and
// writes the span log and count snapshot to the working directory.
//
// The last stdout line is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <malloc.h>
#include <string>
#include <vector>

#include "telemetry/json.hpp"
#include "trace.hpp"
#include "workload.hpp"

namespace simbench {
namespace {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

/// Set-up phases, in order; their host times sum to setup_s.
constexpr const char* kPhases[] = {"control.testbed_s", "control.pool_s",
                                   "control.populate_s", "control.warmup_s"};

struct Episode {
  bool traced = false;
  double phase_s[4] = {};
  std::vector<double> slice_us;
  double window_s = 0;
  std::uint64_t window_offered = 0;
  std::uint64_t offered = 0;
  std::uint64_t failures = 0;
  std::string failure_detail;
  Digest digest;
  // Traced episodes only.
  LayerCounts window;
  std::size_t peak_live = 0;
  OpLatency ops;
  Digest op_digest;
  std::vector<xmem::telemetry::Sample> registry_start;
  std::vector<xmem::telemetry::Sample> registry_end;

  [[nodiscard]] double setup_s() const {
    return phase_s[0] + phase_s[1] + phase_s[2] + phase_s[3];
  }
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// Nearest-rank percentile over pooled slice samples.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

/// Per slice index, the least host time any of the given episodes took.
/// Every episode of a seed is the same modelled run, so slice i does the
/// same work in each, and host noise (other tenants on a shared core,
/// cache interference) only ever adds time. A spike the program causes
/// (heap compaction, a rehash, an RTO scan) recurs at the same index in
/// every episode and survives; one the machine causes does not.
std::vector<double> best_slices(const std::vector<Episode>& episodes,
                                bool traced) {
  std::vector<double> best;
  for (const Episode& ep : episodes) {
    if (ep.traced != traced) continue;
    if (best.empty()) {
      best = ep.slice_us;
      continue;
    }
    for (std::size_t i = 0; i < best.size(); ++i) {
      best[i] = std::min(best[i], ep.slice_us[i]);
    }
  }
  return best;
}

/// Window packets over the summed per-index best slice times.
double pkts_per_second(const std::vector<Episode>& episodes, bool traced) {
  double seconds = 0;
  for (const double us : best_slices(episodes, traced)) seconds += us / 1e6;
  for (const Episode& ep : episodes) {
    if (ep.traced == traced) {
      return static_cast<double>(ep.window_offered) / seconds;
    }
  }
  return 0.0;
}

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

/// Peak resident set of this process (VmHWM), in MB.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

Episode run_episode(const Options& opt, int index, TraceCapture* capture,
                    SpanLog& spans) {
  Episode ep;
  ep.traced = capture != nullptr;
  spans.set_run(opt.workload + "/seed" + std::to_string(opt.seed) + "/ep" +
                std::to_string(index) + (ep.traced ? "/traced" : ""));
  const int episode_span = spans.open("episode");
  auto w = make_workload(opt.workload, opt.seed);
  const Workload::Shape shape = w->shape();

  // Set-up: everything before the first measured slice.
  const int setup_span = spans.open("setup", episode_span);
  std::int64_t t = now_ns();
  auto phase = [&](int i, auto&& fn) {
    const int span = spans.open(kPhases[i], setup_span);
    fn();
    spans.close(span);
    const std::int64_t next = now_ns();
    ep.phase_s[i] = static_cast<double>(next - t) / 1e9;
    t = next;
  };
  phase(0, [&] { w->build_testbed(); });
  phase(1, [&] {
    w->build_pool();
    if (capture != nullptr) w->enable_tracing(*capture);
  });
  phase(2, [&] {
    w->populate();
    if (capture != nullptr && w->cache_setup() != nullptr) {
      capture->cache = *w->cache_setup();
    }
  });
  phase(3, [&] {
    w->start_traffic();
    w->sim().run_until(shape.warmup);
  });
  spans.close(setup_span);

  // Measured window.
  const LayerCounts before = w->counts();
  if (capture != nullptr) ep.registry_start = capture->registry->snapshot();
  w->begin_window();
  ep.slice_us.reserve(static_cast<std::size_t>(shape.slices));
  const int window_span = spans.open("window", episode_span);
  for (int i = 1; i <= shape.slices; ++i) {
    const sim::Time until = shape.warmup + shape.slice * i;
    const std::int64_t start = now_ns();
    w->sim().run_until(until);
    const std::int64_t end = now_ns();
    spans.add("slice/run_until", start, end, window_span);
    ep.slice_us.push_back(static_cast<double>(end - start) / 1e3);
    ep.window_s += static_cast<double>(end - start) / 1e9;
    if (capture != nullptr) {
      ep.peak_live = std::max(ep.peak_live, w->sim().queue().live_count());
    }
  }
  spans.close(window_span);
  w->end_window();
  const LayerCounts after = w->counts();
  ep.window = after - before;
  ep.window_offered = ep.window.offered;
  if (capture != nullptr) {
    ep.registry_end = capture->registry->snapshot();
    ep.ops = op_latency(*capture->tracer, shape.warmup, ep.op_digest);
  }

  // Drain and check: outside every timing.
  const int check_span = spans.open("drain+check", episode_span);
  w->stop_and_drain();
  ep.failures = w->failures(ep.failure_detail);
  w->digest(ep.digest);
  ep.offered = w->counts().offered;
  spans.close(check_span);
  spans.close(episode_span);
  // The registry's readers and the tracer point into the testbed; drop
  // them with it.
  w.reset();
  if (capture != nullptr) {
    capture->registry.reset();
    capture->tracer.reset();
  }
  return ep;
}

void print_metric(std::map<std::string, std::pair<double, std::string>>& out,
                  const std::string& name, double value,
                  const std::string& unit, const std::string& note = "") {
  out[name] = {value, unit};
  std::printf("  %-28s %16.6f %-6s %s\n", name.c_str(), value, unit.c_str(),
              note.c_str());
}

/// Registry snapshot at the window's end, with each counter's delta
/// over the window.
bool write_counts(const std::string& path, const Episode& ep) {
  std::map<std::string, double> start;
  for (const auto& s : ep.registry_start) start[s.name] = s.as_double();
  xmem::telemetry::json::JsonWriter w;
  w.begin_object();
  w.key("metrics");
  w.begin_array();
  for (const auto& s : ep.registry_end) {
    w.begin_object();
    w.kv("name", std::string_view(s.name));
    w.kv("unit", std::string_view(s.unit));
    w.kv("end", s.as_double());
    if (s.kind == xmem::telemetry::MetricKind::kCounter) {
      w.kv("window_delta", s.as_double() - start[s.name]);
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  std::ofstream out(path);
  out << w.str() << '\n';
  return static_cast<bool>(out);
}

int run(const Options& opt) {
  if (!make_workload(opt.workload, opt.seed)) {
    std::string known;
    for (const std::string& name : workload_names()) known += " " + name;
    std::fprintf(stderr, "simbench: unknown workload '%s' (known:%s)\n",
                 opt.workload.c_str(), known.c_str());
    return 2;
  }
  SpanLog spans(opt.trace);
  TraceCapture capture;
  std::vector<Episode> episodes;
  double measured_s = 0;
  bool captured = false;
  // Trace-off runs need several episodes for a set-up median; traced
  // runs alternate untraced/traced so both see the same machine state.
  const int min_episodes = opt.trace ? 2 : 3;
  while (static_cast<int>(episodes.size()) < min_episodes ||
         measured_s < opt.seconds) {
    const bool traced = opt.trace && episodes.size() % 2 == 1;
    // Only the first traced episode's capture is kept; later traced
    // episodes get a throwaway one, so their overhead matches but memory
    // stays bounded.
    TraceCapture scratch;
    TraceCapture* cap = nullptr;
    if (traced) cap = captured ? &scratch : &capture;
    captured = captured || traced;
    episodes.push_back(
        run_episode(opt, static_cast<int>(episodes.size()), cap, spans));
    const Episode& ep = episodes.back();
    measured_s += ep.window_s;
    std::printf(
        "episode %zu%s: setup %.3f s, window %.3f s (%zu slices), "
        "offered %llu, failed %llu, digest %016llx\n",
        episodes.size() - 1, traced ? " (traced)" : "", ep.setup_s(),
        ep.window_s, ep.slice_us.size(),
        static_cast<unsigned long long>(ep.offered),
        static_cast<unsigned long long>(ep.failures),
        static_cast<unsigned long long>(ep.digest.hash()));
  }

  // Correctness: invariants per episode, and one digest per seed.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool deterministic = true;
  for (const Episode& ep : episodes) {
    attempted += ep.offered;
    failed += ep.failures;
    if (ep.failures != 0) {
      std::printf("invariant broken: %s\n", ep.failure_detail.c_str());
    }
    if (ep.digest.hash() != episodes.front().digest.hash()) {
      deterministic = false;
      std::printf("digest mismatch:\n  %s\n  %s\n",
                  episodes.front().digest.text().c_str(),
                  ep.digest.text().c_str());
    }
  }
  std::printf("modelled digest %016llx: %s\n",
              static_cast<unsigned long long>(episodes.front().digest.hash()),
              episodes.front().digest.text().c_str());
  std::printf("ops_attempted=%llu ops_failed=%llu\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  bool correct = failed == 0 && deterministic;

  std::map<std::string, std::pair<double, std::string>> metrics;
  std::vector<double> setups;
  std::vector<double> phases[4];
  for (const Episode& ep : episodes) {
    if (ep.traced) continue;
    setups.push_back(ep.setup_s());
    for (int i = 0; i < 4; ++i) phases[i].push_back(ep.phase_s[i]);
  }
  const double pkts_per_s = pkts_per_second(episodes, false);

  if (!opt.trace) {
    const std::vector<double> slices = best_slices(episodes, false);
    const auto beyond = slices.size() - static_cast<std::size_t>(std::ceil(
                                            0.99 * static_cast<double>(
                                                       slices.size())));
    std::printf("end-to-end (%zu episodes; %zu slice samples, each the "
                "least host time of its index across episodes):\n",
                episodes.size(), slices.size());
    print_metric(metrics, "sim_pkts_per_s", pkts_per_s, "1/s",
                 "tenant packets simulated per host second");
    print_metric(metrics, "slice_host_us_p50", percentile(slices, 50), "us");
    // Printed, not reported: on a shared host the tail's run-to-run
    // spread reaches the largest bound a reported metric may have.
    std::printf("  %-28s %16.6f %-6s %zu samples beyond p99 (not reported)\n",
                "slice_host_us_p99", percentile(slices, 99), "us", beyond);
    print_metric(metrics, "setup_s", median(setups), "s",
                 "median of " + std::to_string(setups.size()));
    print_metric(metrics, "peak_rss_mb", peak_rss_mb(), "MB");
  } else {
    const Episode& tr = episodes[1];
    const LayerCounts& c = tr.window;
    const double pkts = static_cast<double>(c.offered);
    auto per_pkt = [&](std::uint64_t v) {
      return pkts > 0 ? static_cast<double>(v) / pkts : 0.0;
    };
    auto base = [](std::uint64_t num, std::uint64_t den) {
      return "= " + std::to_string(num) + " / " + std::to_string(den);
    };
    const int replay_span = spans.open("replays");
    const double crc = replay_crc(capture, spans, replay_span);
    const RoceReplay roce = replay_roce(capture, spans, replay_span);
    const double ns_per_event =
        replay_sim(c.events, tr.peak_live, opt.seed, spans, replay_span);
    const CacheReplay cache = replay_cache(capture, spans, replay_span);
    spans.close(replay_span);
    if (!roce.ok) {
      std::printf("replay: a captured RoCE frame failed to parse/rebuild\n");
      correct = false;
    }
    const double traced_pps = pkts_per_second(episodes, true);

    std::printf("per-layer (traced window: %llu tenant packets, "
                "%zu RoCE frames captured, %zu key-trace entries):\n",
                static_cast<unsigned long long>(c.offered),
                capture.frames.size(), capture.key_trace.size());
    print_metric(metrics, "sim.pkts", pkts, "count");
    print_metric(metrics, "sim.events", static_cast<double>(c.events),
                 "count");
    print_metric(metrics, "sim.events_per_pkt", per_pkt(c.events), "count",
                 base(c.events, c.offered));
    print_metric(metrics, "sim.peak_live_events",
                 static_cast<double>(tr.peak_live), "count",
                 "max over slice boundaries");
    print_metric(metrics, "sim.ns_per_event", ns_per_event, "ns",
                 "hold-model replay at peak live depth");
    print_metric(metrics, "net.roce_frames",
                 static_cast<double>(c.roce_frames), "count");
    print_metric(metrics, "net.roce_bytes_per_pkt", per_pkt(c.roce_bytes),
                 "B", base(c.roce_bytes, c.offered));
    print_metric(metrics, "net.crc_ns_per_kb", crc, "ns");
    print_metric(metrics, "roce.parse_ns_per_frame", roce.parse_ns_per_frame,
                 "ns");
    print_metric(metrics, "roce.build_ns_per_frame", roce.build_ns_per_frame,
                 "ns");
    print_metric(metrics, "topo.frames", static_cast<double>(c.link_frames),
                 "count");
    print_metric(metrics, "topo.frames_per_pkt", per_pkt(c.link_frames),
                 "count", base(c.link_frames, c.offered));
    print_metric(metrics, "switchsim.pipeline_passes",
                 static_cast<double>(c.sw_received + c.sw_recirculated +
                                     c.sw_injected),
                 "count",
                 "received " + std::to_string(c.sw_received) +
                     " + recirculated " + std::to_string(c.sw_recirculated) +
                     " + injected " + std::to_string(c.sw_injected));
    print_metric(metrics, "switchsim.tm_drops",
                 static_cast<double>(c.tm_drops), "count");
    print_metric(metrics, "switchsim.pfc_pauses",
                 static_cast<double>(c.pfc_xoff), "count");
    print_metric(metrics, "rnic.requests", static_cast<double>(c.rnic_requests),
                 "count");
    print_metric(metrics, "rnic.requests_per_pkt", per_pkt(c.rnic_requests),
                 "count", base(c.rnic_requests, c.offered));
    print_metric(metrics, "rnic.overflow_drops",
                 static_cast<double>(c.rnic_overflow), "count");
    print_metric(metrics, "rnic.naks", static_cast<double>(c.rnic_naks),
                 "count");
    print_metric(metrics, "core.remote_ops", static_cast<double>(c.remote_ops),
                 "count");
    print_metric(metrics, "core.remote_ops_per_pkt", per_pkt(c.remote_ops),
                 "count", base(c.remote_ops, c.offered));
    print_metric(metrics, "core.sampled", static_cast<double>(c.sampled),
                 "count");
    print_metric(metrics, "core.fa_sent", static_cast<double>(c.fa_sent),
                 "count");
    print_metric(metrics, "core.combining_ratio", ratio(c.sampled, c.fa_sent),
                 "ratio", base(c.sampled, c.fa_sent));
    print_metric(metrics, "core.retransmits",
                 static_cast<double>(c.retransmits), "count");
    print_metric(metrics, "core.retransmit_ratio",
                 ratio(c.retransmits, c.remote_ops), "ratio",
                 base(c.retransmits, c.remote_ops));
    print_metric(metrics, "core.cache_hits", static_cast<double>(c.cache_hits),
                 "count");
    print_metric(metrics, "core.cache_lookups",
                 static_cast<double>(c.cache_lookups), "count");
    print_metric(metrics, "core.cache_hit_ratio",
                 ratio(c.cache_hits, c.cache_lookups), "ratio",
                 base(c.cache_hits, c.cache_lookups));
    print_metric(metrics, "core.cache_invalidations",
                 static_cast<double>(c.cache_invalidations), "count");
    print_metric(metrics, "core.cache_ns_per_lookup", cache.ns_per_lookup,
                 "ns",
                 "replay hits " + base(cache.hits, cache.lookups));
    print_metric(metrics, "core.op_sim_us_p50", tr.ops.p50_us, "us",
                 "over " + std::to_string(tr.ops.ops) + " ops");
    print_metric(metrics, "core.op_sim_us_p99", tr.ops.p99_us, "us");
    for (int i = 0; i < 4; ++i) {
      print_metric(metrics, kPhases[i], median(phases[i]), "s");
    }
    print_metric(metrics, "host.pkts_delivered",
                 static_cast<double>(c.delivered), "count");
    print_metric(metrics, "faults.frames_dropped",
                 static_cast<double>(c.link_drops), "count");
    print_metric(metrics, "telemetry.trace_overhead_pct",
                 100.0 * (1.0 - traced_pps / pkts_per_s), "%",
                 "traced " + std::to_string(traced_pps) + " vs untraced " +
                     std::to_string(pkts_per_s) + " pkts/s");
    std::printf("op-latency digest: %s\n", tr.op_digest.text().c_str());

    const std::string stem =
        opt.workload + "-seed" + std::to_string(opt.seed);
    if (!write_counts(stem + ".counts.json", tr) ||
        !spans.write_json(stem + ".spans.json")) {
      std::fprintf(stderr, "simbench: cannot write %s.*.json\n",
                   stem.c_str());
      return 1;
    }
    std::printf("wrote %s.counts.json and %s.spans.json (%zu spans)\n",
                stem.c_str(), stem.c_str(), spans.size());
  }

  xmem::telemetry::json::JsonWriter out;
  out.begin_object();
  out.kv("correct", correct);
  out.kv("attempted", attempted);
  out.kv("failed", failed);
  out.key("metrics");
  out.begin_object();
  for (const auto& [name, value] : metrics) {
    out.key(name);
    out.begin_object();
    out.kv("value", value.first);
    out.kv("unit", std::string_view(value.second));
    out.end_object();
  }
  out.end_object();
  out.end_object();
  std::printf("%s\n", out.str().c_str());
  return 0;
}

}  // namespace
}  // namespace simbench

int main(int argc, char** argv) {
  // A fixed mmap threshold keeps every region of a megabyte or more out of
  // the heap, so the peak resident set does not depend on how many
  // episodes ran: glibc would otherwise raise the threshold after the
  // first free and carve later regions from a heap whose layout depends
  // on the run's length.
  mallopt(M_MMAP_THRESHOLD, 1 << 20);
  simbench::Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      opt.trace = std::string(value) == "1";
    } else {
      std::fprintf(stderr, "simbench: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  return simbench::run(opt);
}
