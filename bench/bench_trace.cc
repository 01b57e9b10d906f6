// E12 — tracing overhead microbenchmark (`bench_trace`).
//
// Pins the trace layer's cost contract (netsim/trace.h) on the most
// transport-bound workload we have: the E10 "storm" topology (ring + 3
// random chords per node, all-out broadcast every round — the same
// construction and seed as bench_transport, so the numbers line up with
// BENCH_transport.json):
//
//   * disabled — Options::tracer == nullptr. The engine still contains all
//     tracing branches, so comparing this against a storm rounds/s from a
//     bench_transport run on the same machine shows the
//     compiled-in-but-disabled cost (~0%). Pass that number via
//     `--reference R` to print the delta.
//   * enabled  — a Tracer attached (no phase capture, matching a plain
//     `dflp_cli --trace` run). Accepted overhead: < 3% round throughput
//     (EXPERIMENTS.md E12 records the measured value).
//
// Methodology: variant reps are interleaved (disabled, enabled, disabled,
// ...) so slow load drift hits both variants equally, and each variant is
// scored by its best rep — scheduler noise only ever subtracts throughput,
// so max-of-N estimates the unperturbed rate. Full mode (default) runs
// storm@1e5 with 5 reps per variant, writes BENCH_trace.json, and exits
// non-zero when the enabled overhead exceeds the 3% budget. `--smoke`
// shrinks to storm@1e4 with 2 reps and never gates (1-core CI noise swamps
// a single-digit-percent signal).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "netsim/network.h"
#include "netsim/trace.h"

namespace dflp::benchx {
namespace {

using net::Message;
using net::Network;
using net::NodeContext;
using net::NodeId;
using net::Tracer;

/// Broadcasts a small payload to every neighbour every round, never halts
/// (identical to bench_transport's storm program).
class Storm final : public net::Process {
 public:
  void on_round(NodeContext& ctx, std::span<const Message> in) override {
    received_ += in.size();
    ctx.broadcast(/*kind=*/1, {7, 9, 0});
  }

 private:
  std::uint64_t received_ = 0;
};

/// The E10 storm edge set: ring plus 3 random chords per node (degree ~8),
/// same topology seed as bench_transport so throughputs are comparable.
/// Built once — a fresh Network is constructed from it per rep.
std::vector<std::pair<NodeId, NodeId>> make_storm_edges(std::size_t n) {
  Rng topo_rng(0xBE7C417ULL);
  std::set<std::pair<NodeId, NodeId>> edges;
  auto norm = [](NodeId a, NodeId b) {
    return a < b ? std::make_pair(a, b) : std::make_pair(b, a);
  };
  for (std::size_t v = 0; v < n; ++v)
    edges.insert(norm(static_cast<NodeId>(v),
                      static_cast<NodeId>((v + 1) % n)));
  for (std::size_t v = 0; v < n; ++v) {
    for (int c = 0; c < 3; ++c) {
      const auto w = static_cast<NodeId>(topo_rng.uniform_u64(n));
      if (w == static_cast<NodeId>(v)) continue;
      edges.insert(norm(static_cast<NodeId>(v), w));
    }
  }
  return {edges.begin(), edges.end()};
}

Network make_storm(std::size_t n,
                   const std::vector<std::pair<NodeId, NodeId>>& edges,
                   Tracer* tracer) {
  Network::Options o;
  o.bit_budget = 64;
  o.seed = 1;
  o.tracer = tracer;
  Network net(n, o);
  for (auto [u, v] : edges) net.add_edge(u, v);
  net.finalize();
  for (std::size_t v = 0; v < n; ++v)
    net.set_process(static_cast<NodeId>(v), std::make_unique<Storm>());
  return net;
}

struct Sample {
  double wall_s = 0.0;
  double rounds_per_s = 0.0;
  std::uint64_t messages = 0;
};

/// One timed run; fresh network per rep so arena/buffer capacities start
/// identically for both variants. `tracer` null = disabled variant.
Sample run_once(std::size_t n,
                const std::vector<std::pair<NodeId, NodeId>>& edges,
                std::uint64_t rounds, Tracer* tracer) {
  Network net = make_storm(n, edges, tracer);
  net.run(3);  // warmup: steady-state arena and buffer capacities
  const auto t0 = std::chrono::steady_clock::now();
  const net::NetMetrics m = net.run(rounds);
  const auto t1 = std::chrono::steady_clock::now();
  Sample s;
  s.wall_s = std::chrono::duration<double>(t1 - t0).count();
  s.messages = m.messages;
  if (s.wall_s > 0)
    s.rounds_per_s = static_cast<double>(m.rounds) / s.wall_s;
  if (tracer != nullptr) {
    // Sanity: one record per executed round (warmup + timed).
    DFLP_CHECK_MSG(tracer->rounds().size() == m.rounds + 3,
                   "tracer recorded " << tracer->rounds().size()
                                      << " rounds, engine ran "
                                      << (m.rounds + 3));
  }
  return s;
}

double best_rounds_per_s(const std::vector<Sample>& samples) {
  double best = 0.0;
  for (const Sample& s : samples) best = std::max(best, s.rounds_per_s);
  return best;
}

int main_impl(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_trace.json";
  double reference = 0.0;  // storm rounds/s from a same-machine E10 run
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--reference" && i + 1 < argc) {
      reference = std::atof(argv[++i]);
    } else {
      std::cerr << "usage: bench_trace [--smoke] [--out FILE]"
                   " [--reference ROUNDS_PER_S]\n";
      return 2;
    }
  }

  const std::size_t n = smoke ? 10'000 : 100'000;
  const std::uint64_t rounds = smoke ? 24 : 32;
  const int reps = smoke ? 2 : 5;

  std::cout << "\n# E12 — tracing overhead on storm@" << n
            << (smoke ? " (smoke)" : "") << "\n\n";

  const auto edges = make_storm_edges(n);
  std::vector<Sample> disabled, enabled;
  std::vector<std::unique_ptr<Tracer>> tracers;  // keep traces alive
  for (int rep = 0; rep < reps; ++rep) {
    disabled.push_back(run_once(n, edges, rounds, nullptr));
    tracers.push_back(std::make_unique<Tracer>());
    enabled.push_back(run_once(n, edges, rounds, tracers.back().get()));
  }

  const double disabled_rps = best_rounds_per_s(disabled);
  const double enabled_rps = best_rounds_per_s(enabled);
  const double overhead_pct =
      disabled_rps > 0.0
          ? 100.0 * (disabled_rps - enabled_rps) / disabled_rps
          : 0.0;

  std::cout << "| variant | rounds/s (best of " << reps
            << ") | messages/rep |\n";
  std::cout << "|---|---|---|\n";
  std::cout << "| disabled | " << disabled_rps << " | "
            << disabled.front().messages << " |\n";
  std::cout << "| enabled | " << enabled_rps << " | "
            << enabled.front().messages << " |\n\n";
  std::cout << "enabled overhead: " << overhead_pct << "% (budget < 3%)\n";
  if (reference > 0.0) {
    std::cout << "disabled vs reference " << reference << " rounds/s: "
              << 100.0 * (disabled_rps / reference - 1.0)
              << "% (compiled-in-but-disabled delta; ~0% expected)\n";
  }

  std::ofstream out(out_path);
  out << "{\n  \"bench\": \"trace\",\n  \"mode\": \""
      << (smoke ? "smoke" : "full")
      << "\",\n  \"topology\": \"storm\",\n  \"n\": " << n
      << ",\n  \"rounds\": " << rounds << ",\n  \"reps\": " << reps
      << ",\n  \"disabled_rounds_per_s\": " << disabled_rps
      << ",\n  \"enabled_rounds_per_s\": " << enabled_rps
      << ",\n  \"enabled_overhead_pct\": " << overhead_pct
      << ",\n  \"reference_rounds_per_s\": " << reference << "\n}\n";
  std::cout << "wrote " << out_path << "\n";

  if (!smoke && overhead_pct > 3.0) {
    std::cerr << "FAIL: enabled tracing overhead " << overhead_pct
              << "% exceeds the 3% budget\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace dflp::benchx

int main(int argc, char** argv) {
  return dflp::benchx::main_impl(argc, argv);
}
