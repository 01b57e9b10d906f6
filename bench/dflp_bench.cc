// dflp_bench — every experiment of DESIGN.md §4 behind one binary.
//
//   dflp_bench <experiment> [--smoke] [--out FILE] [--phases]
//              [--reference ROUNDS_PER_S]
//
// E1–E8 print their Markdown tables and take no flag. E10–E15 also write
// one JSON record (BENCH_<experiment>.json unless `--out` names another
// file), shrink their workload under `--smoke`, and exit 1 when a gate
// fails. `--phases` is transport's, `--reference` is trace's. A flag the
// experiment does not take, a malformed number, an unknown experiment or a
// record file that cannot be written exits 2 with a message naming it.
#include <iostream>
#include <string_view>

#include "bench_util.h"

namespace dflp::benchx {

int run_tradeoff(const Options&);
int run_congest(const Options&);
int run_spread(const Options&);
int run_mscaling(const Options&);
int run_pipeline(const Options&);
int run_baselines(const Options&);
int run_scale(const Options&);
int run_ablation(const Options&);
int run_transport(const Options&);
int run_faults(const Options&);
int run_trace(const Options&);
int run_stream(const Options&);
int run_ftfp(const Options&);
int run_metric(const Options&);

namespace {

struct Experiment {
  std::string_view name;
  int (*run)(const Options&);
  unsigned takes;  ///< Takes bits
};

constexpr Experiment kExperiments[] = {
    {"tradeoff", run_tradeoff, 0},      // E1
    {"congest", run_congest, 0},        // E2
    {"spread", run_spread, 0},          // E3
    {"mscaling", run_mscaling, 0},      // E4
    {"pipeline", run_pipeline, 0},      // E5
    {"baselines", run_baselines, 0},    // E6
    {"scale", run_scale, 0},            // E7
    {"ablation", run_ablation, 0},      // E8
    {"transport", run_transport, kTakesSmokeOut | kTakesPhases},  // E10
    {"faults", run_faults, kTakesSmokeOut},                       // E11
    {"trace", run_trace, kTakesSmokeOut | kTakesReference},       // E12
    {"stream", run_stream, kTakesSmokeOut},                       // E13
    {"ftfp", run_ftfp, kTakesSmokeOut},                           // E14
    {"metric", run_metric, kTakesSmokeOut},                       // E15
};

int usage() {
  std::cerr << "usage: dflp_bench <experiment> [--smoke] [--out FILE] "
               "[--phases] [--reference ROUNDS_PER_S]\nexperiments:";
  for (const Experiment& e : kExperiments) std::cerr << " " << e.name;
  std::cerr << "\n";
  return 2;
}

}  // namespace
}  // namespace dflp::benchx

int main(int argc, char** argv) {
  using namespace dflp::benchx;
  if (argc < 2) return usage();
  const std::string_view name = argv[1];
  for (const Experiment& e : kExperiments) {
    if (e.name != name) continue;
    Options opts;
    try {
      opts = parse_options(name, e.takes, argc - 2, argv + 2);
    } catch (const UsageError& err) {
      std::cerr << "dflp_bench " << name << ": " << err.what() << "\n";
      return 2;
    }
    try {
      return e.run(opts);
    } catch (const WriteError& err) {
      std::cerr << "dflp_bench " << name << ": " << err.what() << "\n";
      return 2;
    }
  }
  std::cerr << "dflp_bench: unknown experiment '" << name << "'\n";
  return usage();
}
