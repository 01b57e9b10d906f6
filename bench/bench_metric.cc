// E15 — metric head-to-head: PODC'05 vs the metric specialists
// (`dflp_bench metric`).
//
// Sweeps planted-cluster complete-bipartite metric instances (fl/metric.h)
// over facility counts m and runs, on every instance:
//   * mw-greedy     — the paper's PODC'05 primal-dual solver on the
//                     bipartite CONGEST graph (general costs, no metric
//                     assumption);
//   * clique-fl     — the BHP congested-clique ruling-set solver
//                     (arXiv:1308.2473), which buys its doubly-logarithmic
//                     round count with the metric assumption and all-to-all
//                     bandwidth;
//   * li-jms        — Li's 1.488-style scaled-JMS portfolio
//                     (arXiv:1105.1248), the strongest sequential yardstick
//                     for metric UFL.
// Every instance is re-validated with check_metric before anything runs.
//
// Gates (exit 1 on violation):
//   * clique-fl rounds stay within the analytic doubly-logarithmic cap
//     2 * (log2 log2 m + 2) + 2 + chain slack at every size — so the
//     measured round count grows sub-logarithmically in n — and beat the
//     PODC'05 solver's round count outright on every instance;
//   * clique-fl cost stays within 8x the li-jms baseline (the proven
//     factor is O(1); the slack absorbs the quantized radii);
//   * li-jms never loses to plain JMS (the delta = 1 grid point);
//   * every solution is feasible.
//
// Results go to stdout as markdown tables and to `BENCH_metric.json`
// (override with `--out`). `--smoke` shrinks the sweep for CI.
#include <cmath>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/check.h"
#include "core/clique_fl.h"
#include "core/metric_baseline.h"
#include "core/mw_greedy.h"
#include "fl/metric.h"
#include "seq/jms.h"

namespace dflp::benchx {
namespace {

constexpr std::uint64_t kInstanceSeed = 17;
constexpr std::uint64_t kEngineSeed = 11;

struct Cell {
  std::int32_t m = 0;
  std::int32_t n = 0;
  std::string algo;
  double cost = 0.0;
  double ratio_vs_li = 0.0;  ///< cost / li-jms cost on the same instance
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;
  std::uint64_t total_bits = 0;
  std::uint64_t iterations = 0;  ///< clique-fl sampling iterations (else 0)
};

/// The analytic round cap the clique solver must respect: p_t reaches 1 by
/// iteration ceil(log2 log2 m) + 1 (two rounds per iteration, plus the
/// final client round and one quiescence round), after which undecided
/// facilities resolve greedily by (radius, id) key — conflict chains add a
/// small constant number of extra iterations (kChainSlack, measured <= 3
/// across the sweep; the gate allows twice that).
constexpr double kChainSlack = 6.0;

double clique_round_cap(std::int32_t m) {
  const double loglog =
      std::log2(std::max(2.0, std::log2(static_cast<double>(m))));
  return 2.0 * (loglog + 2.0) + 2.0 + kChainSlack;
}

}  // namespace

int run_metric(const Options& opts) {
  const bool smoke = opts.smoke;
  const std::vector<std::int32_t> sizes =
      smoke ? std::vector<std::int32_t>{16, 32}
            : std::vector<std::int32_t>{32, 64, 128, 256};

  std::cout << "\n# E15 — metric head-to-head: PODC'05 vs metric "
               "specialists"
            << (smoke ? " (smoke)" : "") << "\n\n";
  std::cout << "| m | n | algo | cost | ratio-vs-li | rounds | messages | "
               "kbits | iters |\n";
  std::cout << "|---|---|---|---|---|---|---|---|---|\n";

  std::vector<Cell> cells;
  int failures = 0;
  for (const std::int32_t m : sizes) {
    fl::MetricParams params;
    params.facilities = m;
    params.clients = 2 * m;
    params.clusters = std::max<std::int32_t>(2, m / 8);
    const fl::MetricInstance minst =
        fl::make_metric_instance(params, kInstanceSeed);
    fl::check_metric(minst.instance);  // throws on generator regressions

    // Sequential yardsticks first: the li-jms cost is the denominator of
    // every ratio this experiment prints.
    const core::LiResult li = core::li_jms_solve(minst.instance);
    const seq::JmsResult jms = seq::jms_solve(minst.instance);
    const double jms_cost = jms.solution.cost(minst.instance);
    if (li.cost > jms_cost + 1e-9) {
      std::cerr << "FAIL: li-jms (" << li.cost << ") lost to plain JMS ("
                << jms_cost << ") at m=" << m << "\n";
      ++failures;
    }

    core::MwParams mw;
    mw.k = 4;
    mw.seed = kEngineSeed;
    const core::MwGreedyOutcome mw_out =
        core::run_mw_greedy(minst.instance, mw);

    core::CliqueFlParams cp;
    cp.seed = kEngineSeed;
    const core::CliqueFlOutcome clique = core::run_clique_fl(minst, cp);

    const auto emit = [&](const std::string& algo, double cost,
                          const fl::IntegralSolution& sol,
                          std::uint64_t rounds, std::uint64_t messages,
                          std::uint64_t bits, std::uint64_t iterations) {
      Cell c;
      c.m = m;
      c.n = params.clients;
      c.algo = algo;
      c.cost = cost;
      c.ratio_vs_li = li.cost > 0.0 ? cost / li.cost : 0.0;
      c.rounds = rounds;
      c.messages = messages;
      c.total_bits = bits;
      c.iterations = iterations;
      cells.push_back(c);
      std::cout << "| " << c.m << " | " << c.n << " | " << c.algo << " | "
                << c.cost << " | " << c.ratio_vs_li << " | " << c.rounds
                << " | " << c.messages << " | " << (c.total_bits / 1000.0)
                << " | " << c.iterations << " |\n";
      std::cout.flush();
      if (!sol.is_feasible(minst.instance)) {
        std::cerr << "FAIL: " << algo << " infeasible at m=" << m << "\n";
        ++failures;
      }
    };
    emit("li-jms", li.cost, li.solution, 0, 0, 0, 0);
    emit("mw-greedy", mw_out.solution.cost(minst.instance), mw_out.solution,
         mw_out.metrics.rounds, mw_out.metrics.messages,
         mw_out.metrics.total_bits, 0);
    emit("clique-fl", clique.solution.cost(minst.instance), clique.solution,
         clique.metrics.rounds, clique.metrics.messages,
         clique.metrics.total_bits, clique.iterations);

    // Gate: the clique round count respects the doubly-logarithmic cap...
    const double cap = clique_round_cap(m);
    if (static_cast<double>(clique.metrics.rounds) > cap) {
      std::cerr << "FAIL: clique-fl used " << clique.metrics.rounds
                << " rounds at m=" << m << " (cap " << cap << ")\n";
      ++failures;
    }
    // ...and wins the head-to-head outright: fewer rounds than the
    // PODC'05 solver on the same instance, at a better cost ratio.
    if (clique.metrics.rounds >= mw_out.metrics.rounds) {
      std::cerr << "FAIL: clique-fl (" << clique.metrics.rounds
                << " rounds) did not beat mw-greedy ("
                << mw_out.metrics.rounds << " rounds) at m=" << m << "\n";
      ++failures;
    }
    // Gate: constant-factor cost against the 1.488-style baseline.
    const double clique_cost = clique.solution.cost(minst.instance);
    if (clique_cost > 8.0 * li.cost) {
      std::cerr << "FAIL: clique-fl cost " << clique_cost << " exceeds 8x "
                << "the li-jms baseline " << li.cost << " at m=" << m
                << "\n";
      ++failures;
    }
  }

  // Headline: round growth across the sweep. Sub-logarithmic means the
  // largest/smallest round ratio stays under the log n ratio.
  std::cout << "\n## headline — clique-fl round growth\n\n";
  std::cout << "| m | rounds | analytic cap | log2(n) |\n";
  std::cout << "|---|---|---|---|\n";
  for (const Cell& c : cells) {
    if (c.algo != "clique-fl") continue;
    std::cout << "| " << c.m << " | " << c.rounds << " | "
              << clique_round_cap(c.m) << " | "
              << std::log2(static_cast<double>(c.m + c.n)) << " |\n";
  }

  std::vector<Record> rows;
  for (const Cell& c : cells) {
    rows.emplace_back()
        .add("m", c.m)
        .add("n", c.n)
        .add("algo", c.algo)
        .add("cost", c.cost)
        .add("ratio_vs_li", c.ratio_vs_li)
        .add("rounds", c.rounds)
        .add("messages", c.messages)
        .add("total_bits", c.total_bits)
        .add("iterations", c.iterations);
  }
  bench_record("metric", opts)
      .add("instance_seed", kInstanceSeed)
      .add("engine_seed", kEngineSeed)
      .add("cells", rows)
      .write(opts.out);

  if (failures > 0) {
    std::cerr << "FAIL: " << failures << " gate(s) violated\n";
    return 1;
  }
  return 0;
}

}  // namespace dflp::benchx
