// E2 ("Table 1") — CONGEST compliance and round complexity.
//
// Claims under validation: (a) every message fits in O(log N) bits (the
// simulator *rejects* violations, so the interesting number is the margin);
// (b) rounds are independent of n at fixed k (they depend on k and the
// instance's cost-spread constants only); (c) per-edge traffic is O(1)
// messages per round.
#include "bench_util.h"

namespace dflp::benchx {
namespace {

fl::Instance uniform_instance(std::int32_t n, std::uint64_t seed) {
  workload::UniformParams p;
  p.num_facilities = std::max(4, n / 5);
  p.num_clients = n;
  p.client_degree = 6;
  return workload::uniform_random(p, seed);
}

}  // namespace

int run_congest(const Options&) {
  print_header(
      "E2 / Table 1 — CONGEST compliance across network sizes (k = 4)",
      "budget = simulator's enforced per-message bit budget (4*ceil(log2 "
      "N)+16). max-bits = largest message actually sent. msgs/edge/round = "
      "mean traffic density. Rounds must stay ~flat as n grows 16x.");

  Table table({"n", "N(nodes)", "budget(bits)", "max-bits", "rounds",
               "messages", "msgs/edge/round"});
  for (std::int32_t n : {50, 100, 200, 400, 800}) {
    RunningStat rounds;
    RunningStat msgs;
    RunningStat density;
    int max_bits = 0;
    int budget = 0;
    std::int32_t num_nodes = 0;
    for (std::uint64_t seed : default_seeds()) {
      const fl::Instance inst = uniform_instance(n, seed);
      const core::MwGreedyOutcome out =
          core::run_mw_greedy(inst, make_params(4, seed));
      rounds.add(static_cast<double>(out.metrics.rounds));
      msgs.add(static_cast<double>(out.metrics.messages));
      density.add(static_cast<double>(out.metrics.messages) /
                  (static_cast<double>(inst.num_edges()) *
                   static_cast<double>(out.metrics.rounds)));
      max_bits = std::max(max_bits, out.metrics.max_message_bits);
      budget = out.schedule.bit_budget;
      num_nodes = out.schedule.num_network_nodes;
    }
    table.row()
        .cell(static_cast<std::int64_t>(n))
        .cell(static_cast<std::int64_t>(num_nodes))
        .cell(budget)
        .cell(max_bits)
        .cell(rounds.mean(), 1)
        .cell(msgs.mean(), 0)
        .cell(density.mean(), 4);
  }
  print_table("uniform family, k = 4, 5 seeds per row", table);

  // Rounds vs k at fixed n: the O(k) claim, directly.
  Table ktable({"k", "levels*subphases", "rounds", "rounds/k"});
  for (int k : {1, 4, 9, 16, 36, 64}) {
    const fl::Instance inst = uniform_instance(200, 1);
    const core::MwGreedyOutcome out =
        core::run_mw_greedy(inst, make_params(k, 1));
    const auto iters = static_cast<std::int64_t>(out.schedule.levels) *
                       out.schedule.subphases;
    ktable.row()
        .cell(k)
        .cell(iters)
        .cell(out.metrics.rounds)
        .cell(static_cast<double>(out.metrics.rounds) / k, 2);
  }
  print_table("rounds vs k (n = 200, single seed — deterministic)", ktable);
  return 0;
}

}  // namespace dflp::benchx
