// E7 ("Table 4") — simulator and algorithm scale.
//
// Claims under validation: the number of rounds at fixed k is independent
// of n (the algorithm is genuinely local), total messages grow ~linearly in
// the number of edges, and the single-threaded simulator sustains
// 10^5-client instances in seconds.
#include "bench_util.h"

#include <chrono>

#include "lp/dual_ascent.h"

namespace dflp::benchx {
namespace {

fl::Instance big_instance(std::int32_t n, std::uint64_t seed) {
  workload::UniformParams p;
  p.num_facilities = std::max(4, n / 50);
  p.num_clients = n;
  p.client_degree = 5;
  return workload::uniform_random(p, seed);
}

}  // namespace

int run_scale(const Options&) {
  print_header(
      "E7 / Table 4 — scaling to 10^5 clients (k = 4, single seed)",
      "rounds should stay ~constant; messages ~linear in edges; wall time "
      "is the full simulation including message validation. ratio uses the "
      "dual-ascent lower bound (the LP is far beyond simplex size here).");

  Table table({"n", "m", "edges", "rounds", "messages", "wall-ms",
               "ratio-vs-dual"});
  for (std::int32_t n : {1000, 10000, 50000, 100000}) {
    const fl::Instance inst = big_instance(n, 1);
    const auto start = std::chrono::steady_clock::now();
    const core::MwGreedyOutcome out =
        core::run_mw_greedy(inst, make_params(4, 1));
    const auto stop = std::chrono::steady_clock::now();
    const double wall_ms =
        std::chrono::duration<double, std::milli>(stop - start).count();
    const lp::DualAscentResult dual = lp::dual_ascent_bound(inst);
    table.row()
        .cell(static_cast<std::int64_t>(n))
        .cell(static_cast<std::int64_t>(inst.num_facilities()))
        .cell(static_cast<std::uint64_t>(inst.num_edges()))
        .cell(out.metrics.rounds)
        .cell(out.metrics.messages)
        .cell(wall_ms, 1)
        .cell(out.solution.cost(inst) / dual.lower_bound, 3);
  }
  print_table("uniform family, degree 5", table);
  return 0;
}

}  // namespace dflp::benchx
