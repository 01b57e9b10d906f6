// E1 ("Figure 1") — the paper's headline trade-off.
//
// Claim under validation: for every k, the distributed algorithm achieves an
// O(sqrt(k) * (m*rho)^(1/sqrt(k)) * log(m+n))-approximation in O(k) rounds —
// so as k grows, the measured approximation ratio should fall monotonically
// (up to noise) toward the centralized-greedy level while rounds grow
// linearly in k (times instance-bound constants).
//
// Output: one series per instance family: k -> (ratio, rounds, messages),
// plus the centralized greedy reference line.
#include "bench_util.h"

#include "seq/greedy.h"

namespace dflp::benchx {
namespace {

constexpr int kSize = 120;  // ~24 facilities, 120 clients

fl::Instance family_instance(workload::Family family, std::uint64_t seed) {
  return workload::make_family_instance(family, kSize, seed);
}

}  // namespace

int run_tradeoff(const Options&) {
  print_header("E1 / Figure 1 — approximation vs locality parameter k",
               "Series: mean ratio vs lower bound over 5 seeded instances "
               "per family; rounds and messages are means. Reference row: "
               "centralized greedy (H_n guarantee, unbounded locality).");

  const std::vector<int> ks = {1, 2, 4, 8, 16, 32, 64};
  for (const auto family :
       {workload::Family::kUniform, workload::Family::kEuclidean,
        workload::Family::kPowerLaw}) {
    Table table({"k", "ratio(mean)", "ratio(max)", "rounds", "messages"});
    for (int k : ks) {
      const Agg agg = aggregate_runs(
          harness::Algo::kMwGreedy, k,
          [&](std::uint64_t seed) { return family_instance(family, seed); },
          default_seeds());
      table.row()
          .cell(k)
          .cell(agg.mean_ratio, 3)
          .cell(agg.max_ratio, 3)
          .cell(agg.mean_rounds, 1)
          .cell(agg.mean_messages, 0);
    }
    const Agg greedy = aggregate_runs(
        harness::Algo::kSeqGreedy, 1,
        [&](std::uint64_t seed) { return family_instance(family, seed); },
        default_seeds());
    table.row()
        .cell("greedy")
        .cell(greedy.mean_ratio, 3)
        .cell(greedy.max_ratio, 3)
        .cell("-")
        .cell("-");
    print_table("family = " + workload::family_name(family), table);
  }
  return 0;
}

}  // namespace dflp::benchx
