// M1 — engineering micro-benchmarks (google-benchmark).
//
// Not a paper table: these keep the substrate honest. Header
// encode/decode, ICRC, table lookups, the event engine and the hash
// functions are the per-packet costs every simulated experiment pays.
//
// The EventQueue* and Packet* benches are the perf-gate's pinned hot
// paths: schedule/fire, schedule/cancel churn at three dead fractions,
// clone, clone+truncate-to-64B and parse; so are the RoCE frame path
// (BM_BuildRoceWrite, BM_ParseRocePacket) and the CRC rows. A parsed
// RoCE payload is a slice of its frame, so BM_ParseRocePacket copies no
// payload bytes; BM_BuildRoceWrite is one allocation and one payload
// copy per frame. scripts/bench.sh runs them with `--json <path>`
// (translated below into google-benchmark's JSON reporter) and
// bench/perf_gate folds the numbers into BENCH_*.json.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "net/checksum.hpp"
#include "net/flow.hpp"
#include "net/packet.hpp"
#include "roce/packet.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "switchsim/table.hpp"

using namespace xmem;

namespace {

roce::RoceEndpoint ep(int i) {
  return {net::MacAddress::from_index(static_cast<std::uint16_t>(i)),
          net::Ipv4Address::from_index(static_cast<std::uint16_t>(i)),
          0xc000};
}

void BM_BuildRoceWrite(benchmark::State& state) {
  const std::vector<std::uint8_t> payload(
      static_cast<std::size_t>(state.range(0)), 0x5a);
  roce::RoceMessage msg;
  msg.bth.opcode = roce::Opcode::kRdmaWriteOnly;
  msg.reth = roce::Reth{0x1000, 0xaa,
                        static_cast<std::uint32_t>(payload.size())};
  msg.payload = net::ByteSlice::copy_of(payload);
  for (auto _ : state) {
    auto frame = roce::build_roce_packet(ep(1), ep(2), msg);
    benchmark::DoNotOptimize(frame);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_BuildRoceWrite)->Arg(64)->Arg(1500);

void BM_ParseRocePacket(benchmark::State& state) {
  roce::RoceMessage msg;
  msg.bth.opcode = roce::Opcode::kRdmaWriteOnly;
  msg.reth = roce::Reth{0x1000, 0xaa, 1500};
  msg.payload.assign(1500, 0x5a);
  const net::Packet frame = roce::build_roce_packet(ep(1), ep(2), msg);
  for (auto _ : state) {
    auto parsed = roce::parse_roce_packet(frame);
    benchmark::DoNotOptimize(parsed);
  }
}
BENCHMARK(BM_ParseRocePacket);

void BM_Crc32(benchmark::State& state) {
  const std::vector<std::uint8_t> data(
      static_cast<std::size_t>(state.range(0)), 0x33);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::crc32(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(64)->Arg(1500);

void BM_ComputeIcrc(benchmark::State& state) {
  roce::RoceMessage msg;
  msg.bth.opcode = roce::Opcode::kRdmaWriteOnly;
  msg.reth = roce::Reth{0x1000, 0xaa, 1500};
  msg.payload.assign(1500, 0x5a);
  const net::Packet frame = roce::build_roce_packet(ep(1), ep(2), msg);
  const auto covered = frame.bytes().first(frame.size() - roce::kIcrcBytes);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        roce::compute_icrc(covered, roce::RoceVersion::kV2));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(covered.size()));
}
BENCHMARK(BM_ComputeIcrc);

void BM_InternetChecksum(benchmark::State& state) {
  const std::vector<std::uint8_t> data(1500, 0x44);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::internet_checksum(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          1500);
}
BENCHMARK(BM_InternetChecksum);

void BM_Fnv1a(benchmark::State& state) {
  const net::FiveTuple tuple{net::Ipv4Address(1, 2, 3, 4),
                             net::Ipv4Address(5, 6, 7, 8), 9, 10, 17};
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::flow_hash(tuple));
  }
}
BENCHMARK(BM_Fnv1a);

void BM_ExactTableLookup(benchmark::State& state) {
  switchsim::ExactMatchTable table;
  sim::Rng rng(1);
  std::vector<switchsim::Key> keys;
  for (int i = 0; i < state.range(0); ++i) {
    switchsim::Key key(13);
    for (auto& b : key) b = static_cast<std::uint8_t>(rng.next());
    table.insert(key, switchsim::Action{});
    keys.push_back(std::move(key));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.lookup(keys[i++ % keys.size()]));
  }
}
BENCHMARK(BM_ExactTableLookup)->Arg(1024)->Arg(65536);

void BM_EventQueueChurn(benchmark::State& state) {
  sim::EventQueue queue;
  sim::Time t = 0;
  for (auto _ : state) {
    queue.schedule(t + 100, [] {});
    queue.schedule(t + 50, [] {});
    queue.run_next();
    queue.run_next();
    t += 100;
  }
}
BENCHMARK(BM_EventQueueChurn);

/// The engine's bread and butter: schedule a batch of near-future events
/// (mixed offsets so the heap actually reorders) and drain it. Items/sec
/// is events fired per second.
void BM_EventQueueScheduleFire(benchmark::State& state) {
  sim::EventQueue queue;
  const int batch = static_cast<int>(state.range(0));
  sim::Time t = 0;
  for (auto _ : state) {
    for (int i = 0; i < batch; ++i) {
      queue.schedule(t + (i % 7) * 10 + i / 7, [] {});
    }
    while (!queue.empty()) queue.run_next();
    t += 1000;
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_EventQueueScheduleFire)->Arg(64)->Arg(4096);

/// Timer-heavy workloads (retransmit timers that almost always get
/// cancelled) stress the dead-entry path: schedule a batch, cancel a
/// fraction, drain the survivors. Arg is the dead percentage.
void BM_EventQueueCancelChurn(benchmark::State& state) {
  sim::EventQueue queue;
  sim::Rng rng(42);
  const int dead_pct = static_cast<int>(state.range(0));
  constexpr int kBatch = 1024;
  std::vector<sim::EventId> ids;
  ids.reserve(kBatch);
  sim::Time t = 0;
  for (auto _ : state) {
    ids.clear();
    for (int i = 0; i < kBatch; ++i) {
      ids.push_back(queue.schedule(t + i, [] {}));
    }
    for (auto& id : ids) {
      if (rng.uniform(100) < static_cast<std::uint64_t>(dead_pct)) {
        id.cancel();
      }
    }
    while (!queue.empty()) queue.run_next();
    t += kBatch;
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_EventQueueCancelChurn)->Arg(10)->Arg(50)->Arg(90);

net::Packet make_mtu_packet() {
  const std::vector<std::uint8_t> payload(1458, 0x5a);
  return net::build_udp_packet(
      net::MacAddress::from_index(1), net::MacAddress::from_index(2),
      net::Ipv4Address(10, 0, 0, 1), net::Ipv4Address(10, 0, 0, 2), 1, 2,
      payload);
}

/// The switch clone operation on a full MTU frame.
void BM_PacketClone(benchmark::State& state) {
  const net::Packet p = make_mtu_packet();
  for (auto _ : state) {
    net::Packet c = p.clone();
    benchmark::DoNotOptimize(c);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PacketClone);

/// The state-store hot path: clone a tracked frame, then truncate the
/// copy to a 64 B header stub (the paper's clone-and-truncate).
void BM_PacketCloneTruncate64(benchmark::State& state) {
  const net::Packet p = make_mtu_packet();
  for (auto _ : state) {
    net::Packet c = p.clone();
    c.truncate(64);
    benchmark::DoNotOptimize(c);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PacketCloneTruncate64);

/// Header-stack parse of a full frame (every switch pipeline pass pays
/// this).
void BM_ParsePacket(benchmark::State& state) {
  const net::Packet p = make_mtu_packet();
  for (auto _ : state) {
    auto parsed = net::parse_packet(p);
    benchmark::DoNotOptimize(parsed);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ParsePacket);

void BM_UdpPacketBuild(benchmark::State& state) {
  const std::vector<std::uint8_t> payload(1458, 0);
  for (auto _ : state) {
    auto p = net::build_udp_packet(
        net::MacAddress::from_index(1), net::MacAddress::from_index(2),
        net::Ipv4Address(10, 0, 0, 1), net::Ipv4Address(10, 0, 0, 2), 1, 2,
        payload);
    benchmark::DoNotOptimize(p);
  }
}
BENCHMARK(BM_UdpPacketBuild);

void BM_ZipfSample(benchmark::State& state) {
  sim::Rng rng(3);
  sim::ZipfGenerator zipf(1 << 20, 0.99, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf());
  }
}
BENCHMARK(BM_ZipfSample);

}  // namespace

/// Custom main instead of BENCHMARK_MAIN(): the repo-wide bench flag
/// `--json <path>` is translated into google-benchmark's JSON reporter
/// so perf_gate consumes one flag convention across all benches.
int main(int argc, char** argv) {
  std::vector<std::string> args;
  for (int i = 0; i < argc; ++i) {
    if (std::string(argv[i]) == "--json" && i + 1 < argc) {
      args.push_back(std::string("--benchmark_out=") + argv[i + 1]);
      args.emplace_back("--benchmark_out_format=json");
      ++i;
      continue;
    }
    args.emplace_back(argv[i]);
  }
  std::vector<char*> argp;
  argp.reserve(args.size());
  for (auto& a : args) argp.push_back(a.data());
  int n = static_cast<int>(argp.size());
  benchmark::Initialize(&n, argp.data());
  if (benchmark::ReportUnrecognizedArguments(n, argp.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
