// E10 — raw transport round-throughput microbenchmark
// (`dflp_bench transport`).
//
// Unlike E1–E8 this experiment does not measure any facility-location
// algorithm: it drives the CONGEST simulator itself with trivial node
// programs so the measured cost is the transport — step dispatch, send
// staging/validation, fault/commit accounting, delivery ordering and the
// quiescence check. Three topologies stress different transport shapes:
//
//   * star       — N-1 leaves each send one message to the hub per round:
//                  one enormous inbox, stresses delivery ordering.
//   * bipartite  — every node sends to one random neighbour per round on a
//                  random left/right graph: scattered small inboxes.
//   * storm      — every node broadcasts to ~8 neighbours per round on a
//                  ring-plus-chords graph: maximum message volume, stresses
//                  the broadcast path and the commit scatter.
//
// Each configuration reports rounds/s and Mmsg/s and everything is written
// to a machine-readable `BENCH_transport.json`, which CI's
// bench-transport-regression job compares with the committed one.
// `--smoke` shrinks the workload for CI; `--out`
// overrides the JSON path; `--phases` attaches a Tracer to every measured
// run and appends a
// per-engine-phase wall-time attribution table (step / commit / scatter),
// the breakdown EXPERIMENTS.md E10 uses to attribute speedups.
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "netsim/network.h"
#include "netsim/trace.h"

namespace dflp::benchx {
namespace {

using net::Message;
using net::Network;
using net::NodeContext;
using net::NodeId;
using net::Process;

/// Sink node: consumes its inbox (the sum keeps delivery honest under -O2).
class Consume final : public net::Process {
 public:
  void on_round(NodeContext&, std::span<const Message> in) override {
    received_ += in.size();
  }
  std::uint64_t received() const { return received_; }

 private:
  std::uint64_t received_ = 0;
};

/// Sends one small message to a fixed target every round, never halts.
class SendFixed final : public net::Process {
 public:
  explicit SendFixed(NodeId to) : to_(to) {}
  void on_round(NodeContext& ctx, std::span<const Message> in) override {
    received_ += in.size();
    ctx.send(to_, /*kind=*/1, {static_cast<std::int64_t>(ctx.self()), 0, 0});
  }

 private:
  NodeId to_;
  std::uint64_t received_ = 0;
};

/// Sends to one rng-chosen neighbour every round, never halts.
class SendRandomNeighbor final : public net::Process {
 public:
  void on_round(NodeContext& ctx, std::span<const Message> in) override {
    received_ += in.size();
    const auto nbrs = ctx.neighbors();
    if (nbrs.empty()) return;
    const auto pick = ctx.rng().uniform_u64(nbrs.size());
    ctx.send(nbrs[pick], /*kind=*/1, {3, 0, 0});
  }

 private:
  std::uint64_t received_ = 0;
};

/// Broadcasts a small payload to every neighbour every round, never halts.
class Storm final : public net::Process {
 public:
  void on_round(NodeContext& ctx, std::span<const Message> in) override {
    received_ += in.size();
    ctx.broadcast(/*kind=*/1, {7, 9, 0});
  }

 private:
  std::uint64_t received_ = 0;
};

struct Config {
  std::string topology;
  std::size_t n = 0;
  std::uint64_t rounds = 0;
};

struct Result {
  Config cfg;
  std::uint64_t messages = 0;
  std::uint64_t total_bits = 0;
  double wall_s = 0.0;
  double rounds_per_s = 0.0;
  double mmsgs_per_s = 0.0;
  // Engine-phase wall-time attribution (seconds summed over the measured
  // rounds); only populated under --phases.
  double step_s = 0.0;
  double commit_s = 0.0;
  double scatter_s = 0.0;
};

}  // namespace

Network make_network(const std::string& topology, std::size_t n,
                     net::Tracer* tracer) {
  Network::Options o;
  o.bit_budget = 64;
  o.seed = 1;
  o.tracer = tracer;
  Network net(n, o);

  Rng topo_rng(0xBE7C417ULL);
  if (topology == "star") {
    for (std::size_t v = 1; v < n; ++v)
      net.add_edge(0, static_cast<NodeId>(v));
    net.finalize();
    net.set_process(0, std::make_unique<Consume>());
    for (std::size_t v = 1; v < n; ++v)
      net.set_process(static_cast<NodeId>(v), std::make_unique<SendFixed>(0));
  } else if (topology == "bipartite") {
    // Left half connects to 4 random right-half nodes each.
    const std::size_t half = n / 2;
    std::set<std::pair<NodeId, NodeId>> edges;
    for (std::size_t l = 0; l < half; ++l) {
      for (int d = 0; d < 4; ++d) {
        const auto r =
            static_cast<NodeId>(half + topo_rng.uniform_u64(n - half));
        edges.emplace(static_cast<NodeId>(l), r);
      }
    }
    for (auto [u, v] : edges) net.add_edge(u, v);
    net.finalize();
    for (std::size_t v = 0; v < n; ++v)
      net.set_process(static_cast<NodeId>(v),
                      std::make_unique<SendRandomNeighbor>());
  } else if (topology == "storm") {
    // Ring plus 3 random chords per node: degree ~8, all-out broadcast.
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
    for (auto [u, v] : edges) net.add_edge(u, v);
    net.finalize();
    for (std::size_t v = 0; v < n; ++v)
      net.set_process(static_cast<NodeId>(v), std::make_unique<Storm>());
  } else {
    std::cerr << "unknown topology " << topology << "\n";
    std::exit(2);
  }
  return net;
}

namespace {

Result run_config(const Config& cfg, bool phases) {
  std::unique_ptr<net::Tracer> tracer =
      phases ? std::make_unique<net::Tracer>() : nullptr;
  Network net = make_network(cfg.topology, cfg.n, tracer.get());
  net.run(3);  // warmup: populates buffers/inboxes to steady-state capacity
  const std::size_t warmup_rounds = tracer ? tracer->rounds().size() : 0;
  const auto t0 = std::chrono::steady_clock::now();
  const net::NetMetrics m = net.run(cfg.rounds);
  const auto t1 = std::chrono::steady_clock::now();

  Result r;
  r.cfg = cfg;
  r.messages = m.messages;
  r.total_bits = m.total_bits;
  r.wall_s = std::chrono::duration<double>(t1 - t0).count();
  if (r.wall_s > 0) {
    r.rounds_per_s = static_cast<double>(m.rounds) / r.wall_s;
    r.mmsgs_per_s = static_cast<double>(m.messages) / r.wall_s / 1e6;
  }
  if (tracer) {
    const auto& rounds = tracer->rounds();
    for (std::size_t i = warmup_rounds; i < rounds.size(); ++i) {
      r.step_s += rounds[i].step_s;
      r.commit_s += rounds[i].commit_s;
      r.scatter_s += rounds[i].scatter_s;
    }
  }
  return r;
}

// Pre-change reference, measured on this repo's dev host (1 core,
// RelWithDebInfo, one step thread) at the commit immediately before the
// flat-arena transport landed — the per-node-inbox engine. Frozen so the
// JSON always records the speedup of the current transport against the
// engine this PR replaced. Keys: topology/n -> rounds_per_s.
struct Reference {
  const char* topology;
  std::size_t n;
  double rounds_per_s;
};
constexpr Reference kPrechangeReference[] = {
    // Median of 3 runs of this benchmark against the pre-arena transport
    // (per-node inbox vectors), threads=1, RelWithDebInfo, 1-core
    // container; see EXPERIMENTS.md E10 for the measurement protocol.
    {"star", 100000, 135.1},
    {"bipartite", 100000, 70.07},
    {"storm", 100000, 13.96},
};

double prechange_rounds_per_s(const std::string& topology, std::size_t n) {
  for (const Reference& ref : kPrechangeReference)
    if (topology == ref.topology && n == ref.n) return ref.rounds_per_s;
  return 0.0;
}

}  // namespace

int run_transport(const Options& opts) {
  const bool smoke = opts.smoke;
  const std::vector<std::size_t> sizes =
      smoke ? std::vector<std::size_t>{1000, 10000}
            : std::vector<std::size_t>{1000, 10000, 100000};
  // Per-round message volume differs by topology; pick round counts that
  // move a comparable number of messages per configuration.
  const std::uint64_t target_messages = smoke ? 300'000 : 6'000'000;

  std::vector<Result> results;
  std::cout << "\n# E10 — transport round throughput"
            << (smoke ? " (smoke)" : "") << "\n\n";
  std::cout << "| topology | n | rounds | messages | wall s | rounds/s | "
               "Mmsg/s |\n";
  std::cout << "|---|---|---|---|---|---|---|\n";
  for (const char* topology : {"star", "bipartite", "storm"}) {
    for (std::size_t n : sizes) {
      const std::uint64_t est_msgs_per_round =
          std::string(topology) == "storm" ? 8 * n : n;
      Config cfg;
      cfg.topology = topology;
      cfg.n = n;
      cfg.rounds = std::max<std::uint64_t>(
          16, target_messages / std::max<std::uint64_t>(1, est_msgs_per_round));
      const Result r = run_config(cfg, opts.phases);
      results.push_back(r);
      std::cout << "| " << r.cfg.topology << " | " << r.cfg.n << " | "
                << r.cfg.rounds << " | " << r.messages << " | " << r.wall_s
                << " | " << r.rounds_per_s << " | " << r.mmsgs_per_s
                << " |\n";
      std::cout.flush();
    }
  }
  if (opts.phases) {
    std::cout << "\n## Engine-phase attribution (traced wall seconds)\n\n";
    std::cout << "| topology | n | step s | commit s | scatter s | step % | "
                 "commit % | scatter % |\n";
    std::cout << "|---|---|---|---|---|---|---|---|\n";
    for (const Result& r : results) {
      const double total = r.step_s + r.commit_s + r.scatter_s;
      const double denom = total > 0 ? total : 1.0;
      std::cout << "| " << r.cfg.topology << " | " << r.cfg.n << " | "
                << r.step_s << " | " << r.commit_s << " | " << r.scatter_s
                << " | " << 100.0 * r.step_s / denom << " | "
                << 100.0 * r.commit_s / denom << " | "
                << 100.0 * r.scatter_s / denom << " |\n";
    }
  }
  std::vector<Record> rows;
  for (const Result& r : results) {
    Record& row = rows.emplace_back();
    row.add("topology", r.cfg.topology)
        .add("n", r.cfg.n)
        .add("rounds", r.cfg.rounds)
        .add("messages", r.messages)
        .add("total_bits", r.total_bits)
        .add("wall_s", r.wall_s)
        .add("rounds_per_s", r.rounds_per_s)
        .add("mmsgs_per_s", r.mmsgs_per_s);
    const double ref = prechange_rounds_per_s(r.cfg.topology, r.cfg.n);
    if (ref > 0.0) row.add("speedup_vs_prechange", r.rounds_per_s / ref);
  }
  bench_record("transport", opts).add("results", rows).write(opts.out);
  return 0;
}

}  // namespace dflp::benchx
