// E13 — streaming epoch re-solve benchmark (`dflp_bench stream`).
//
// Two measurements over the cell-structured client stream
// (workload/stream.h), both against the epoch-batched streaming service
// (service/streaming_solver.h):
//
//   * warm-vs-cold — two services consume byte-identical event streams at
//     n initial clients with epochs sized at 1% of n; one warm-starts
//     (components outside the epoch's dirty region keep their previous
//     solution), the other
//     re-solves every component from scratch. The final solution cost must
//     match *exactly* on every epoch (the service guarantees it by
//     construction; this experiment exits non-zero if it ever differs), so the
//     reported speedup is a pure wall-clock win, not an accuracy trade.
//   * throughput — one warm service ingests a long stream (1e6+ events in
//     full mode) at several epoch sizes; sustained updates/sec counts
//     everything: delta generation, ingest, snapshot apply, re-solve.
//
// Results go to stdout as Markdown and to a machine-readable
// `BENCH_stream.json` (override with `--out`); `--smoke` shrinks the
// workload for CI, where ctest's DflpBench.stream gates on the exit code.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "service/streaming_solver.h"
#include "workload/stream.h"

namespace dflp::benchx {
namespace {

struct WarmColdResult {
  std::int32_t n_clients = 0;
  std::int32_t cells = 0;
  std::int32_t epoch_size = 0;
  int epochs = 0;
  double warm_median_ms = 0.0;
  double cold_median_ms = 0.0;
  double speedup = 0.0;
  bool cost_identical = true;
};

struct ThroughputResult {
  std::int64_t events = 0;
  std::int64_t epoch_size = 0;
  int epochs = 0;
  double wall_s = 0.0;
  double updates_per_s = 0.0;
  std::int64_t solved_components = 0;
  std::int64_t reused_components = 0;
};

workload::StreamParams make_params(std::int32_t cells,
                                   std::int32_t initial_clients) {
  workload::StreamParams sp;
  sp.num_cells = cells;
  sp.facilities_per_cell = 4;
  sp.initial_clients = initial_clients;
  sp.client_degree = 3;
  return sp;
}

service::StreamingOptions make_options(const workload::StreamParams& sp,
                                       std::int64_t total_events,
                                       bool warm) {
  service::StreamingOptions opt;
  opt.params.k = 4;
  opt.params.seed = 1;
  opt.bounds = service::stream_bounds(sp, total_events);
  opt.engine = service::SolveEngine::kMwGreedy;
  opt.warm_start = warm;
  return opt;
}

WarmColdResult run_warm_vs_cold(std::int32_t cells,
                                std::int32_t initial_clients,
                                std::int32_t epoch_size, int epochs) {
  const workload::StreamParams sp = make_params(cells, initial_clients);
  const std::int64_t total =
      static_cast<std::int64_t>(epoch_size) * epochs;

  // Same params + seed => byte-identical event streams for both sides.
  workload::ClientStream warm_stream(sp, 1);
  workload::ClientStream cold_stream(sp, 1);
  service::StreamingSolver warm(warm_stream.initial_snapshot(),
                                make_options(sp, total, /*warm=*/true));
  service::StreamingSolver cold(cold_stream.initial_snapshot(),
                                make_options(sp, total, /*warm=*/false));

  WarmColdResult r;
  r.n_clients = initial_clients;
  r.cells = cells;
  r.epoch_size = epoch_size;
  r.epochs = epochs;
  r.cost_identical = warm.last_report().cost == cold.last_report().cost;

  std::vector<double> warm_ms;
  std::vector<double> cold_ms;
  for (int e = 0; e < epochs; ++e) {
    fl::DeltaLog batch;
    warm_stream.fill_epoch(epoch_size, batch);
    for (const fl::Delta& d : batch.deltas()) {
      warm.ingest(d);
      cold.ingest(d);
    }
    const service::EpochReport wr = warm.commit_epoch();
    const service::EpochReport cr = cold.commit_epoch();
    warm_ms.push_back(wr.total_ms);
    cold_ms.push_back(cr.total_ms);
    if (wr.cost != cr.cost) r.cost_identical = false;
  }
  r.warm_median_ms = median(warm_ms);
  r.cold_median_ms = median(cold_ms);
  if (r.warm_median_ms > 0.0)
    r.speedup = r.cold_median_ms / r.warm_median_ms;
  return r;
}

ThroughputResult run_throughput(std::int32_t cells,
                                std::int32_t initial_clients,
                                std::int64_t total_events,
                                std::int64_t epoch_size) {
  const workload::StreamParams sp = make_params(cells, initial_clients);
  workload::ClientStream stream(sp, 2);
  service::StreamingSolver solver(stream.initial_snapshot(),
                                  make_options(sp, total_events,
                                               /*warm=*/true));

  ThroughputResult r;
  r.events = total_events;
  r.epoch_size = epoch_size;

  const auto t0 = std::chrono::steady_clock::now();
  for (std::int64_t remaining = total_events; remaining > 0;) {
    const auto batch_size =
        static_cast<std::int32_t>(std::min(remaining, epoch_size));
    fl::DeltaLog batch;
    stream.fill_epoch(batch_size, batch);
    for (const fl::Delta& d : batch.deltas()) solver.ingest(d);
    const service::EpochReport rep = solver.commit_epoch();
    r.solved_components += rep.solved_components;
    r.reused_components += rep.reused_components;
    ++r.epochs;
    remaining -= batch_size;
  }
  const auto t1 = std::chrono::steady_clock::now();
  r.wall_s = std::chrono::duration<double>(t1 - t0).count();
  if (r.wall_s > 0.0)
    r.updates_per_s = static_cast<double>(total_events) / r.wall_s;
  return r;
}

}  // namespace

int run_stream(const Options& opts) {
  const bool smoke = opts.smoke;
  // Warm-vs-cold: epoch = 1% of the initial client population.
  const std::int32_t cells = smoke ? 256 : 10000;
  const std::int32_t initial = smoke ? 2048 : 100000;
  const std::int32_t epoch_size = smoke ? 20 : 1000;
  const int epochs = smoke ? 5 : 20;

  std::cout << "\n# E13 — streaming epoch re-solve ("
            << (smoke ? "smoke" : "full") << ")\n\n";
  std::cout << "## warm-started vs from-scratch re-solve\n\n";
  const WarmColdResult wc =
      run_warm_vs_cold(cells, initial, epoch_size, epochs);
  std::cout << "| n clients | cells | epoch | epochs | warm med ms | "
               "cold med ms | speedup | cost identical |\n"
            << "|---|---|---|---|---|---|---|---|\n"
            << "| " << wc.n_clients << " | " << wc.cells << " | "
            << wc.epoch_size << " | " << wc.epochs << " | "
            << wc.warm_median_ms << " | " << wc.cold_median_ms << " | "
            << wc.speedup << " | " << (wc.cost_identical ? "yes" : "NO")
            << " |\n";
  std::cout.flush();
  if (!wc.cost_identical) {
    std::cerr << "FATAL: warm-started cost diverged from the from-scratch "
                 "baseline\n";
    return 1;
  }

  // Sustained throughput over a long stream, several batching granularities.
  const std::int64_t total = smoke ? 10000 : 1000000;
  const std::vector<std::int64_t> epoch_sizes =
      smoke ? std::vector<std::int64_t>{2000}
            : std::vector<std::int64_t>{10000, 100000};
  std::cout << "\n## sustained update throughput (warm-started)\n\n"
            << "| events | epoch | epochs | wall s | updates/s | solved | "
               "reused |\n|---|---|---|---|---|---|---|\n";
  std::vector<ThroughputResult> tps;
  for (const std::int64_t es : epoch_sizes) {
    const ThroughputResult t = run_throughput(cells, initial, total, es);
    tps.push_back(t);
    std::cout << "| " << t.events << " | " << t.epoch_size << " | "
              << t.epochs << " | " << t.wall_s << " | " << t.updates_per_s
              << " | " << t.solved_components << " | "
              << t.reused_components << " |\n";
    std::cout.flush();
  }

  Record warm_vs_cold;
  warm_vs_cold.add("n_clients", wc.n_clients)
      .add("cells", wc.cells)
      .add("epoch_size", wc.epoch_size)
      .add("epochs", wc.epochs)
      .add("warm_median_ms", wc.warm_median_ms)
      .add("cold_median_ms", wc.cold_median_ms)
      .add("speedup", wc.speedup)
      .add("cost_identical", wc.cost_identical);
  std::vector<Record> throughput;
  for (const ThroughputResult& t : tps) {
    throughput.emplace_back()
        .add("events", t.events)
        .add("epoch_size", t.epoch_size)
        .add("epochs", t.epochs)
        .add("wall_s", t.wall_s)
        .add("updates_per_s", t.updates_per_s)
        .add("solved_components", t.solved_components)
        .add("reused_components", t.reused_components);
  }
  bench_record("stream", opts)
      .add("engine", "mw-greedy")
      .add("warm_vs_cold", warm_vs_cold)
      .add("throughput", throughput)
      .write(opts.out);
  return 0;
}

}  // namespace dflp::benchx
