// E12 — tracing overhead microbenchmark (`dflp_bench trace`).
//
// Pins the trace layer's cost contract (netsim/trace.h) on the most
// transport-bound workload we have: E10's "storm" topology (ring + 3
// random chords per node, all-out broadcast every round), built by the
// same make_network as `dflp_bench transport`, so the numbers line up with
// BENCH_transport.json:
//
//   * disabled — Options::tracer == nullptr. The engine still contains all
//     tracing branches, so comparing this against a storm rounds/s from a
//     `dflp_bench transport` run on the same machine shows the
//     compiled-in-but-disabled cost (~0%). Pass that number via
//     `--reference R` to print the delta.
//   * enabled  — a Tracer attached (no phase capture, matching a plain
//     `dflp_cli --trace` run). Accepted overhead: < 3% round throughput
//     (EXPERIMENTS.md E12 records the measured value).
//
// Methodology: one disabled and one enabled network, built alike and
// warmed up alike, take turns running a few rounds each: a pair is one
// turn of each, the order alternating from pair to pair (disabled first,
// then enabled first), so load drift and the host's fast and slow spells
// hit both sides of a pair alike. Each pair gives one overhead,
// 100 * (disabled - enabled) / disabled rounds/s, and the median pair is
// the estimate; each variant's rounds/s is the median over its turns.
// Full mode (default) runs storm@1e5 with 64 pairs of 4-round turns,
// writes BENCH_trace.json, and exits non-zero when the enabled overhead
// exceeds the 3% budget. `--smoke` shrinks to storm@1e4 with 8 pairs of
// 3-round turns and never gates (1-core CI noise swamps a
// single-digit-percent signal).
#include <chrono>
#include <cstdint>
#include <iostream>
#include <vector>

#include "bench_util.h"
#include "common/check.h"
#include "netsim/trace.h"

namespace dflp::benchx {
namespace {

/// Rounds/s of the next `rounds` rounds of `net`.
double turn(net::Network& net, std::uint64_t rounds) {
  const auto t0 = std::chrono::steady_clock::now();
  const net::NetMetrics m = net.run(rounds);
  const auto t1 = std::chrono::steady_clock::now();
  const double wall_s = std::chrono::duration<double>(t1 - t0).count();
  return wall_s > 0 ? static_cast<double>(m.rounds) / wall_s : 0.0;
}

}  // namespace

int run_trace(const Options& opts) {
  const bool smoke = opts.smoke;
  const std::size_t n = smoke ? 10'000 : 100'000;
  const std::uint64_t rounds = smoke ? 3 : 4;  // per turn
  const int pairs = smoke ? 8 : 64;

  std::cout << "\n# E12 — tracing overhead on storm@" << n
            << (smoke ? " (smoke)" : "") << "\n\n";

  net::Tracer tracer;
  net::Network off = make_network("storm", n, nullptr);
  net::Network on = make_network("storm", n, &tracer);
  off.run(3);  // warmup: steady-state arena and buffer capacities
  on.run(3);
  std::vector<double> disabled, enabled, overhead;
  for (int pair = 0; pair < pairs; ++pair) {
    double d = 0.0, e = 0.0;
    if (pair % 2 == 0) {
      d = turn(off, rounds);
      e = turn(on, rounds);
    } else {
      e = turn(on, rounds);
      d = turn(off, rounds);
    }
    disabled.push_back(d);
    enabled.push_back(e);
    overhead.push_back(d > 0.0 ? 100.0 * (d - e) / d : 0.0);
  }
  // Sanity: one record per executed round (warmup + timed).
  const std::uint64_t executed = 3 + rounds * static_cast<std::uint64_t>(pairs);
  DFLP_CHECK_MSG(tracer.rounds().size() == executed,
                 "tracer recorded " << tracer.rounds().size()
                                    << " rounds, engine ran " << executed);
  const double disabled_rps = median(disabled);
  const double enabled_rps = median(enabled);
  const double overhead_pct = median(overhead);

  std::cout << "| variant | rounds/s (median of " << pairs
            << " turns) | messages |\n";
  std::cout << "|---|---|---|\n";
  std::cout << "| disabled | " << disabled_rps << " | "
            << off.cumulative_metrics().messages << " |\n";
  std::cout << "| enabled | " << enabled_rps << " | "
            << on.cumulative_metrics().messages << " |\n\n";
  std::cout << "enabled overhead: " << overhead_pct
            << "% (median of " << pairs << " pairs; budget < 3%)\n";
  if (opts.reference > 0.0) {
    std::cout << "disabled vs reference " << opts.reference << " rounds/s: "
              << 100.0 * (disabled_rps / opts.reference - 1.0)
              << "% (compiled-in-but-disabled delta; ~0% expected)\n";
  }

  bench_record("trace", opts)
      .add("topology", "storm")
      .add("n", n)
      .add("rounds", rounds)
      .add("reps", pairs)
      .add("disabled_rounds_per_s", disabled_rps)
      .add("enabled_rounds_per_s", enabled_rps)
      .add("enabled_overhead_pct", overhead_pct)
      .add("reference_rounds_per_s", opts.reference)
      .write(opts.out);

  if (!smoke && overhead_pct > 3.0) {
    std::cerr << "FAIL: enabled tracing overhead " << overhead_pct
              << "% exceeds the 3% budget\n";
    return 1;
  }
  return 0;
}

}  // namespace dflp::benchx
