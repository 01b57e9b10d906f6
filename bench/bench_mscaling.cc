// E4 ("Figure 3") — dependence on the facility count m.
//
// Claim under validation: the bound's (m*rho)^(1/sqrt k) factor implies a
// mild polynomial growth of the ratio with m at small k, flattening as k
// grows. Rounds should grow only through the ladder constant (log m).
#include "bench_util.h"

namespace dflp::benchx {
namespace {

fl::Instance m_instance(std::int32_t m, std::uint64_t seed) {
  workload::UniformParams p;
  p.num_facilities = m;
  p.num_clients = 5 * m;
  p.client_degree = std::min<std::int32_t>(6, m);
  return workload::uniform_random(p, seed);
}

}  // namespace

int run_mscaling(const Options&) {
  print_header(
      "E4 / Figure 3 — ratio and rounds vs facility count m (n = 5m)",
      "Mean over 5 seeds. ratio@k=1 may grow with m; ratio@k=16 should stay "
      "nearly flat. rounds@k grow only logarithmically with m (threshold "
      "ladder length), not linearly.");

  Table table({"m", "n", "ratio k=1", "ratio k=4", "ratio k=16",
               "rounds k=4"});
  for (std::int32_t m : {5, 10, 20, 40, 80}) {
    auto agg_at = [&](int k) {
      return aggregate_runs(
          harness::Algo::kMwGreedy, k,
          [&](std::uint64_t seed) { return m_instance(m, seed); },
          default_seeds());
    };
    const Agg a1 = agg_at(1);
    const Agg a4 = agg_at(4);
    const Agg a16 = agg_at(16);
    table.row()
        .cell(static_cast<std::int64_t>(m))
        .cell(static_cast<std::int64_t>(5 * m))
        .cell(a1.mean_ratio, 3)
        .cell(a4.mean_ratio, 3)
        .cell(a16.mean_ratio, 3)
        .cell(a4.mean_rounds, 1);
  }
  print_table("uniform family", table);
  return 0;
}

}  // namespace dflp::benchx
