// perf_gate — the benchmark-regression harness behind scripts/bench.sh.
//
// Subcommands:
//   run      execute one bench binary with `--json <tmp>`, measure
//            wall-clock and peak RSS via wait4(), normalize the bench's
//            JSON (bench_util "results" or google-benchmark "benchmarks")
//            into one labeled entry file.
//   merge    fold labeled entry files into BENCH_*.json under a tag
//            ("baseline" or "post") — the repo's perf trajectory.
//   compare  post vs baseline with unit-direction awareness: warn above
//            --tolerance (default 10%), fail at --fail-factor (default
//            2x) regressions. Wall-clock and RSS are warn-only (they are
//            machine-dependent); bench-reported metrics can fail. A sweep
//            bench's RSS grows with its worker count, so its RSS row is
//            compared only when both entries ran at the same --jobs.
//   summary  markdown table of baseline vs post for README snapshots.
//
// Verdict lines are grep-able: "GATE FAIL", "GATE WARN", "PERF GATE:".
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "telemetry/json.hpp"

namespace json = xmem::telemetry::json;

namespace {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Entry {
  std::string label;
  double wall_seconds = 0;
  double peak_rss_kb = 0;
  /// Worker threads of a sweep bench (its "sweep" header); 0 = not one.
  double sweep_jobs = 0;
  std::vector<Metric> metrics;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("perf_gate: cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("perf_gate: cannot write " + path);
  out << text;
}

/// Re-serialize a parsed json::Value (the parser's std::map keys give
/// deterministic ordering, which keeps BENCH_*.json diffs reviewable).
void serialize(const json::Value& v, json::JsonWriter& w) {
  if (v.is_object()) {
    w.begin_object();
    for (const auto& [k, child] : v.object()) {
      w.key(k);
      serialize(child, w);
    }
    w.end_object();
  } else if (v.is_array()) {
    w.begin_array();
    for (const auto& child : v.array()) serialize(child, w);
    w.end_array();
  } else if (v.is_string()) {
    w.value(v.string());
  } else if (v.is_number()) {
    w.value(v.number());
  } else if (std::holds_alternative<bool>(v.v)) {
    w.value(std::get<bool>(v.v));
  } else {
    w.value("null");
  }
}

/// Normalize either bench JSON dialect into Metric rows.
///  - bench_util:        {"results":[{"metric","value","unit"},...]}
///  - google-benchmark:  {"benchmarks":[{"name","real_time","time_unit",
///                        "items_per_second"?,...},...]}
std::vector<Metric> parse_bench_metrics(const json::Value& doc) {
  std::vector<Metric> out;
  if (doc.contains("results")) {
    for (const auto& row : doc.at("results").array()) {
      out.push_back(Metric{row.at("metric").string(),
                           row.at("value").number(),
                           row.at("unit").string()});
    }
    return out;
  }
  if (doc.contains("benchmarks")) {
    for (const auto& row : doc.at("benchmarks").array()) {
      // Skip aggregate rows (mean/median/stddev) if repetitions were on.
      if (row.contains("run_type") &&
          row.at("run_type").string() != "iteration") {
        continue;
      }
      const std::string name = row.at("name").string();
      out.push_back(Metric{name + "/time", row.at("real_time").number(),
                           row.contains("time_unit")
                               ? row.at("time_unit").string()
                               : "ns"});
      if (row.contains("items_per_second")) {
        out.push_back(Metric{name + "/items_per_sec",
                             row.at("items_per_second").number(), "items/s"});
      }
    }
    return out;
  }
  throw std::runtime_error("perf_gate: unrecognized bench JSON shape");
}

std::string entry_to_json(const Entry& e) {
  json::JsonWriter w;
  w.begin_object();
  w.kv("label", e.label);
  w.kv("wall_seconds", e.wall_seconds);
  w.kv("peak_rss_kb", e.peak_rss_kb);
  if (e.sweep_jobs > 0) w.kv("sweep_jobs", e.sweep_jobs);
  w.key("metrics");
  w.begin_array();
  for (const Metric& m : e.metrics) {
    w.begin_object();
    w.kv("name", m.name);
    w.kv("value", m.value);
    w.kv("unit", m.unit);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.take();
}

int cmd_run(const std::vector<std::string>& args) {
  std::string bin;
  std::string label;
  std::string out;
  std::vector<std::string> extra;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--bin" && i + 1 < args.size()) {
      bin = args[++i];
    } else if (args[i] == "--label" && i + 1 < args.size()) {
      label = args[++i];
    } else if (args[i] == "--out" && i + 1 < args.size()) {
      out = args[++i];
    } else if (args[i] == "--") {
      extra.assign(args.begin() + static_cast<std::ptrdiff_t>(i) + 1,
                   args.end());
      break;
    } else {
      std::fprintf(stderr, "perf_gate run: unknown arg %s\n",
                   args[i].c_str());
      return 2;
    }
  }
  if (bin.empty() || label.empty() || out.empty()) {
    std::fprintf(stderr,
                 "usage: perf_gate run --bin B --label L --out F [-- args]\n");
    return 2;
  }

  const std::string metrics_path = out + ".metrics.tmp";
  std::vector<std::string> child_args{bin, "--json", metrics_path};
  child_args.insert(child_args.end(), extra.begin(), extra.end());

  const auto start = std::chrono::steady_clock::now();
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("perf_gate: fork");
    return 1;
  }
  if (pid == 0) {
    // Child: silence the bench's human-readable stdout; the JSON file is
    // the channel that matters. stderr stays visible for diagnostics.
    std::freopen("/dev/null", "w", stdout);
    std::vector<char*> argv;
    argv.reserve(child_args.size() + 1);
    for (auto& a : child_args) argv.push_back(a.data());
    argv.push_back(nullptr);
    execv(bin.c_str(), argv.data());
    std::perror("perf_gate: execv");
    _exit(127);
  }
  int status = 0;
  struct rusage ru {};
  if (wait4(pid, &status, 0, &ru) < 0) {
    std::perror("perf_gate: wait4");
    return 1;
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    std::fprintf(stderr, "perf_gate: %s exited abnormally (status %d)\n",
                 bin.c_str(), status);
    return 1;
  }

  Entry e;
  e.label = label;
  e.wall_seconds = wall;
  e.peak_rss_kb = static_cast<double>(ru.ru_maxrss);  // Linux: KiB
  const json::Value doc = json::parse(read_file(metrics_path));
  e.metrics = parse_bench_metrics(doc);
  if (doc.contains("sweep") && doc.at("sweep").contains("jobs")) {
    e.sweep_jobs = doc.at("sweep").at("jobs").number();
  }
  std::remove(metrics_path.c_str());
  write_file(out, entry_to_json(e));
  std::printf("perf_gate run: %-12s %6.2fs wall, %8.0f KiB peak, %zu metrics\n",
              label.c_str(), wall, e.peak_rss_kb, e.metrics.size());
  return 0;
}

int cmd_merge(const std::vector<std::string>& args) {
  std::string out;
  std::string tag;
  std::vector<std::string> entries;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--out" && i + 1 < args.size()) {
      out = args[++i];
    } else if (args[i] == "--tag" && i + 1 < args.size()) {
      tag = args[++i];
    } else {
      entries.push_back(args[i]);
    }
  }
  if (out.empty() || tag.empty() || entries.empty()) {
    std::fprintf(stderr,
                 "usage: perf_gate merge --out F --tag T entry.json...\n");
    return 2;
  }

  json::Object root;
  try {
    const json::Value existing = json::parse(read_file(out));
    root = existing.object();
  } catch (const std::exception&) {
    root["schema"] = json::Value{std::string("xmem-bench-v1")};
    root["entries"] = json::Value{json::Object{}};
  }
  auto& tags = std::get<json::Object>(root["entries"].v);
  if (!tags.count(tag)) tags[tag] = json::Value{json::Object{}};
  auto& bucket = std::get<json::Object>(tags[tag].v);
  for (const std::string& path : entries) {
    const json::Value e = json::parse(read_file(path));
    bucket[e.at("label").string()] = e;
  }

  json::JsonWriter w;
  serialize(json::Value{root}, w);
  write_file(out, w.take() + "\n");
  std::printf("perf_gate merge: %zu entr%s under '%s' -> %s\n",
              entries.size(), entries.size() == 1 ? "y" : "ies", tag.c_str(),
              out.c_str());
  return 0;
}

bool lower_is_better(const std::string& name, const std::string& unit) {
  return unit == "ns" || unit == "us" || unit == "ms" || unit == "s" ||
         unit == "seconds" || unit == "kb" ||
         name.find("wall") != std::string::npos ||
         name.find("rss") != std::string::npos ||
         name.find("overhead") != std::string::npos;
}

std::map<std::string, Metric> metric_map(const json::Value& entry) {
  std::map<std::string, Metric> out;
  for (const auto& row : entry.at("metrics").array()) {
    out[row.at("name").string()] =
        Metric{row.at("name").string(), row.at("value").number(),
               row.at("unit").string()};
  }
  out["wall_seconds"] =
      Metric{"wall_seconds", entry.at("wall_seconds").number(), "s"};
  out["peak_rss_kb"] =
      Metric{"peak_rss_kb", entry.at("peak_rss_kb").number(), "kb"};
  return out;
}

/// The entry's sweep worker count, 0 when not recorded.
double sweep_jobs(const json::Value& entry) {
  return entry.contains("sweep_jobs") ? entry.at("sweep_jobs").number() : 0;
}

int cmd_compare(const std::vector<std::string>& args) {
  std::string file;
  double tolerance = 0.10;
  double fail_factor = 2.0;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--file" && i + 1 < args.size()) {
      file = args[++i];
    } else if (args[i] == "--tolerance" && i + 1 < args.size()) {
      tolerance = std::stod(args[++i]);
    } else if (args[i] == "--fail-factor" && i + 1 < args.size()) {
      fail_factor = std::stod(args[++i]);
    } else {
      std::fprintf(stderr, "perf_gate compare: unknown arg %s\n",
                   args[i].c_str());
      return 2;
    }
  }
  const json::Value doc = json::parse(read_file(file));
  const auto& entries = doc.at("entries");
  if (!entries.contains("baseline") || !entries.contains("post")) {
    std::fprintf(stderr, "perf_gate: %s needs baseline + post entries\n",
                 file.c_str());
    return 2;
  }

  int compared = 0;
  int warns = 0;
  int fails = 0;
  for (const auto& [label, post_entry] : entries.at("post").object()) {
    if (!entries.at("baseline").contains(label)) {
      std::printf("GATE WARN %s: no baseline entry\n", label.c_str());
      ++warns;
      continue;
    }
    const auto& base_entry = entries.at("baseline").at(label);
    const auto base = metric_map(base_entry);
    const auto post = metric_map(post_entry);
    const double base_jobs = sweep_jobs(base_entry);
    const double post_jobs = sweep_jobs(post_entry);
    for (const auto& [name, pm] : post) {
      const auto it = base.find(name);
      if (it == base.end() || it->second.value == 0) continue;
      if (name == "peak_rss_kb" && base_jobs > 0 && post_jobs > 0 &&
          base_jobs != post_jobs) {
        std::printf("GATE SKIP %s/peak_rss_kb: baseline at --jobs %.0f, "
                    "post at --jobs %.0f\n",
                    label.c_str(), base_jobs, post_jobs);
        continue;
      }
      ++compared;
      const double ratio = pm.value / it->second.value;
      const bool lower = lower_is_better(name, pm.unit);
      const double regress = lower ? ratio : 1.0 / ratio;
      // Wall-clock and RSS depend on the machine; they warn, never fail.
      const bool advisory = name == "wall_seconds" || name == "peak_rss_kb";
      const char* verdict = "ok  ";
      if (regress >= fail_factor && !advisory) {
        verdict = "FAIL";
        ++fails;
      } else if (regress > 1.0 + tolerance) {
        verdict = "WARN";
        ++warns;
      }
      if (std::strcmp(verdict, "ok  ") != 0 || regress < 1.0 / (1 + tolerance)) {
        std::printf("GATE %s %s/%s: base=%.4g post=%.4g (%.2fx %s)\n",
                    verdict, label.c_str(), name.c_str(), it->second.value,
                    pm.value, ratio, lower ? "lower-better" : "higher-better");
      }
    }
  }
  std::printf("PERF GATE: %d metrics compared, %d warnings, %d failures\n",
              compared, warns, fails);
  return fails > 0 ? 1 : 0;
}

int cmd_summary(const std::vector<std::string>& args) {
  std::string file;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--file" && i + 1 < args.size()) file = args[++i];
  }
  if (file.empty()) {
    std::fprintf(stderr, "usage: perf_gate summary --file F\n");
    return 2;
  }
  const json::Value doc = json::parse(read_file(file));
  const auto& entries = doc.at("entries");
  if (!entries.contains("baseline") || !entries.contains("post")) {
    std::fprintf(stderr, "perf_gate: %s needs baseline + post entries\n",
                 file.c_str());
    return 2;
  }
  std::printf("| bench | metric | baseline | post | change |\n");
  std::printf("|---|---|---:|---:|---:|\n");
  for (const auto& [label, post_entry] : entries.at("post").object()) {
    if (!entries.at("baseline").contains(label)) continue;
    const auto base = metric_map(entries.at("baseline").at(label));
    for (const auto& [name, pm] : metric_map(post_entry)) {
      const auto it = base.find(name);
      if (it == base.end() || it->second.value == 0) continue;
      const double ratio = pm.value / it->second.value;
      const bool lower = lower_is_better(name, pm.unit);
      const double gain = lower ? 1.0 / ratio : ratio;
      std::printf("| %s | %s | %.4g %s | %.4g %s | %.2fx %s |\n",
                  label.c_str(), name.c_str(), it->second.value,
                  it->second.unit.c_str(), pm.value, pm.unit.c_str(), gain,
                  gain >= 1.0 ? "faster" : "slower");
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: perf_gate run|merge|compare|summary [args]\n");
    return 2;
  }
  const std::string cmd = argv[1];
  std::vector<std::string> args(argv + 2, argv + argc);
  try {
    if (cmd == "run") return cmd_run(args);
    if (cmd == "merge") return cmd_merge(args);
    if (cmd == "compare") return cmd_compare(args);
    if (cmd == "summary") return cmd_summary(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perf_gate: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr, "perf_gate: unknown subcommand '%s'\n", cmd.c_str());
  return 2;
}
