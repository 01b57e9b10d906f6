// E9 (extension) — cost of asynchrony: the alpha-synchronizer's overhead.
//
// The paper's model is synchronous. This extension experiment quantifies
// what running the same protocol on an asynchronous network costs: control
// messages (round tokens + FINs), round-tag bits, and virtual time vs the
// synchronous round count — while the *solution* stays bit-identical (a
// property the test suite asserts; here we print the overhead series).
#include "bench_util.h"

namespace dflp::benchx {
namespace {

fl::Instance sized_instance(std::int32_t n, std::uint64_t seed) {
  workload::UniformParams p;
  p.num_facilities = std::max(4, n / 5);
  p.num_clients = n;
  p.client_degree = 5;
  return workload::uniform_random(p, seed);
}

}  // namespace

int run_async(const Options&) {
  print_header(
      "E9 / extension — alpha-synchronizer overhead (k = 4)",
      "payload = protocol messages (identical to the synchronous run by "
      "construction); control = round tokens + FIN markers; bit overhead = "
      "async total bits / sync total bits (round tags included); vtime = "
      "asynchronous virtual completion time (max delay 16 per hop) vs "
      "synchronous rounds.");

  Table table({"n", "sync-rounds", "payload-msgs", "control-msgs",
               "control/payload", "bit-overhead", "vtime/rounds"});
  for (std::int32_t n : {25, 50, 100, 200}) {
    RunningStat ctrl_ratio;
    RunningStat bit_overhead;
    RunningStat vtime_ratio;
    double payload = 0.0;
    double control = 0.0;
    double sync_rounds = 0.0;
    for (std::uint64_t seed : default_seeds(3)) {
      const fl::Instance inst = sized_instance(n, seed);
      const core::MwGreedyOutcome sync =
          core::run_mw_greedy(inst, make_params(4, seed));
      const core::MwGreedyAsyncOutcome async =
          core::run_mw_greedy_async(inst, make_params(4, seed), 16);
      payload = static_cast<double>(async.metrics.payload_messages);
      control = static_cast<double>(async.metrics.control_messages);
      sync_rounds = static_cast<double>(sync.metrics.rounds);
      ctrl_ratio.add(control / std::max(1.0, payload));
      bit_overhead.add(static_cast<double>(async.metrics.total_bits) /
                       static_cast<double>(std::max<std::uint64_t>(
                           1, sync.metrics.total_bits)));
      vtime_ratio.add(static_cast<double>(async.metrics.virtual_time) /
                      std::max(1.0, sync_rounds));
    }
    table.row()
        .cell(static_cast<std::int64_t>(n))
        .cell(sync_rounds, 0)
        .cell(payload, 0)
        .cell(control, 0)
        .cell(ctrl_ratio.mean(), 2)
        .cell(bit_overhead.mean(), 2)
        .cell(vtime_ratio.mean(), 2);
  }
  print_table("uniform family, max message delay 16", table);
  return 0;
}

}  // namespace dflp::benchx
