// E3 ("Figure 2") — dependence on the cost-spread coefficient rho.
//
// Claim under validation: the approximation bound carries a (m*rho)^(1/sqrt k)
// factor, so at small k the measured ratio should grow visibly with rho,
// while large k flattens the curve (the exponent 1/sqrt(k) shrinks).
#include "bench_util.h"

namespace dflp::benchx {
namespace {

fl::Instance spread_instance(double rho, std::uint64_t seed) {
  workload::PowerLawParams p;
  p.num_facilities = 20;
  p.num_clients = 100;
  p.client_degree = 5;
  p.rho_target = rho;
  return workload::power_law_spread(p, seed);
}

}  // namespace

int run_spread(const Options&) {
  print_header(
      "E3 / Figure 2 — ratio vs cost spread rho, per k",
      "Rows: rho (log-uniform cost spread). Columns: mean ratio vs lower "
      "bound at k = 1, 4, 16, 64 (5 seeds each). The k = 1 column should "
      "rise with rho; the k = 64 column should stay comparatively flat.");

  Table table({"rho", "k=1", "k=4", "k=16", "k=64"});
  for (double rho : {1e1, 1e2, 1e3, 1e4, 1e5, 1e6}) {
    auto row_ratio = [&](int k) {
      return aggregate_runs(
                 harness::Algo::kMwGreedy, k,
                 [&](std::uint64_t seed) {
                   return spread_instance(rho, seed);
                 },
                 default_seeds())
          .mean_ratio;
    };
    table.row()
        .cell(rho, 0)
        .cell(row_ratio(1), 3)
        .cell(row_ratio(4), 3)
        .cell(row_ratio(16), 3)
        .cell(row_ratio(64), 3);
  }
  print_table("power-law family, m = 20, n = 100", table);

  // Flatness summary: ratio(rho=1e6)/ratio(rho=1e1) per k.
  Table flat({"k", "ratio@rho=1e1", "ratio@rho=1e6", "growth-factor"});
  for (int k : {1, 4, 16, 64}) {
    auto at = [&](double rho) {
      return aggregate_runs(
                 harness::Algo::kMwGreedy, k,
                 [&](std::uint64_t seed) {
                   return spread_instance(rho, seed);
                 },
                 default_seeds())
          .mean_ratio;
    };
    const double lo = at(1e1);
    const double hi = at(1e6);
    flat.row().cell(k).cell(lo, 3).cell(hi, 3).cell(hi / lo, 3);
  }
  print_table("spread sensitivity (growth should shrink as k grows)", flat);
  return 0;
}

}  // namespace dflp::benchx
