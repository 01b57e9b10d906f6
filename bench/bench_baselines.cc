// E6 ("Table 3") — positioning against centralized baselines.
//
// The PODC'05 paper positions its distributed algorithm against the
// centralized state of the art (greedy/H_n for non-metric; JV, MP, JMS for
// metric). This bench reruns that comparison: on instances small enough for
// brute force, every ratio is against the true optimum.
#include "bench_util.h"

#include "seq/jain_vazirani.h"
#include "seq/mettu_plaxton.h"

namespace dflp::benchx {
namespace {

fl::Instance metric_instance(std::uint64_t seed) {
  workload::EuclideanParams p;
  p.num_facilities = 12;
  p.num_clients = 60;
  p.clusters = 3;
  return workload::euclidean(p, seed).instance;
}

fl::Instance nonmetric_instance(std::uint64_t seed) {
  workload::PowerLawParams p;
  p.num_facilities = 12;
  p.num_clients = 60;
  p.client_degree = 5;
  p.rho_target = 1e4;
  return workload::power_law_spread(p, seed);
}

void run_family(const std::string& name,
                fl::Instance (*make)(std::uint64_t)) {
  struct Row {
    harness::Algo algo;
    int k;
    const char* label;
  };
  const std::vector<Row> rows = {
      {harness::Algo::kMwGreedy, 4, "mw-greedy (k=4)"},
      {harness::Algo::kMwGreedy, 16, "mw-greedy (k=16)"},
      {harness::Algo::kMwGreedy, 64, "mw-greedy (k=64)"},
      {harness::Algo::kPipeline, 16, "mw-pipeline (k=16)"},
      {harness::Algo::kIdealGreedy, 1, "ideal-greedy (oracle rounds)"},
      {harness::Algo::kSeqGreedy, 1, "seq-greedy"},
      {harness::Algo::kJainVazirani, 1, "jain-vazirani"},
      {harness::Algo::kMettuPlaxton, 1, "mettu-plaxton"},
      {harness::Algo::kJms, 1, "jms-greedy"},
      {harness::Algo::kLocalSearch, 1, "local-search"},
      {harness::Algo::kNearestFacility, 1, "nearest-facility"},
      {harness::Algo::kOpenAll, 1, "open-all"},
  };

  Table table({"algorithm", "ratio(mean)", "ratio(max)", "rounds",
               "messages"});
  for (const Row& row : rows) {
    const Agg agg =
        aggregate_runs(row.algo, row.k, [&](std::uint64_t seed) {
          return make(seed);
        }, default_seeds());
    const bool distributed = row.algo == harness::Algo::kMwGreedy ||
                             row.algo == harness::Algo::kPipeline ||
                             row.algo == harness::Algo::kIdealGreedy;
    table.row()
        .cell(row.label)
        .cell(agg.mean_ratio, 3)
        .cell(agg.max_ratio, 3)
        .cell(distributed ? format_double(agg.mean_rounds, 1)
                          : std::string("-"))
        .cell(row.algo == harness::Algo::kMwGreedy ||
                      row.algo == harness::Algo::kPipeline
                  ? format_double(agg.mean_messages, 0)
                  : std::string("-"));
  }
  print_table(name + " (m=12, n=60, 5 seeds)", table);
}

}  // namespace

int run_baselines(const Options&) {
  print_header(
      "E6 / Table 3 — distributed trade-off vs centralized baselines",
      "Expected shape: centralized metric algorithms (JV/MP/JMS) win on the "
      "metric family; mw-greedy narrows the gap as k grows and beats the "
      "trivial baselines everywhere; on the non-metric family greedy-style "
      "methods dominate and mw-greedy(k=64) approaches seq-greedy.");
  run_family("metric (clustered Euclidean)", metric_instance);
  run_family("non-metric (power-law costs)", nonmetric_instance);
  return 0;
}

}  // namespace dflp::benchx
