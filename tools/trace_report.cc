// trace_report — fold a dflp round trace into human-readable tables.
//
//   trace_report <trace.jsonl|-> [--rounds N]
//
// Prints, per trace section (one section per network execution — a
// pipeline run has one per stage):
//   * a run summary (nodes, rounds, messages, bits, wall time);
//   * the engine-phase fold — where the wall time went between the step,
//     commit (tally + layout) and scatter phases;
//   * the algorithm-phase fold — per `NodeContext::annotate` label, how
//     many node-rounds marked it and over which round window (present only
//     when the trace was recorded with --trace-phases);
//   * a per-round table, with each round's delivery path (push, pull or
//     skip). With more than N rounds (default 30, 0 = all) the N slowest
//     rounds by wall time are shown instead, flagged in the heading.
//
// Input is the versioned JSONL schema (docs/trace-schema.md); Chrome-format
// exports are for chrome://tracing, not for this tool.
#include <algorithm>
#include <charconv>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include "common/check.h"
#include "common/table.h"
#include "netsim/trace.h"

namespace {

using dflp::Table;
using dflp::format_double;
using dflp::net::ParsedTrace;
using dflp::net::TraceRound;
using dflp::net::TraceSection;

double round_wall_s(const TraceRound& r) {
  return r.step_s + r.commit_s + r.scatter_s;
}

struct PhaseStats {
  std::string label;
  std::uint64_t marks = 0;
  std::uint64_t rounds_active = 0;
  std::uint64_t first_round = 0;
  std::uint64_t last_round = 0;
};

int report(const ParsedTrace& trace, std::size_t max_rounds) {
  for (std::size_t s = 0; s < trace.sections.size(); ++s) {
    const TraceSection& sec = trace.sections[s];
    std::vector<const TraceRound*> rounds;
    for (const TraceRound& r : trace.rounds)
      if (r.section == s) rounds.push_back(&r);

    std::uint64_t delivered = 0, dropped = 0, bits = 0;
    double step_s = 0.0, commit_s = 0.0, scatter_s = 0.0;
    std::uint64_t arena_peak = 0;
    for (const TraceRound* r : rounds) {
      delivered += r->delivered;
      dropped += r->dropped;
      bits += r->bits;
      step_s += r->step_s;
      commit_s += r->commit_s;
      scatter_s += r->scatter_s;
      arena_peak = std::max(arena_peak, r->arena);
    }
    const double wall_s = step_s + commit_s + scatter_s;

    std::cout << "\n## section " << s << ": " << sec.name << " (nodes="
              << sec.nodes << ", edges=" << sec.edges << ", seed=" << sec.seed
              << ", bit budget=" << sec.bit_budget << ")\n\n";
    Table summary({"rounds", "delivered", "dropped", "kbits", "arena peak",
                   "wall ms", "rounds/s"});
    summary.row()
        .cell(static_cast<std::uint64_t>(rounds.size()))
        .cell(delivered)
        .cell(dropped)
        .cell(static_cast<double>(bits) / 1000.0, 1)
        .cell(arena_peak)
        .cell(wall_s * 1e3, 3)
        .cell(wall_s > 0.0 ? static_cast<double>(rounds.size()) / wall_s : 0.0,
              1);
    std::cout << summary << "\n";

    Table engine({"engine phase", "ms", "share"});
    const auto share = [&](double v) {
      return wall_s > 0.0 ? format_double(100.0 * v / wall_s, 1) + "%" : "-";
    };
    engine.row().cell("step").cell(step_s * 1e3, 3).cell(share(step_s));
    engine.row().cell("commit").cell(commit_s * 1e3, 3).cell(share(commit_s));
    engine.row().cell("scatter").cell(scatter_s * 1e3, 3).cell(
        share(scatter_s));
    std::cout << engine << "\n";

    // Algorithm phases: labels are few, so a linear registry keeps the
    // first-seen order stable (sorted per round by the writer).
    std::vector<PhaseStats> phases;
    for (const TraceRound* r : rounds) {
      for (const auto& [label, count] : r->phases) {
        auto it = std::find_if(
            phases.begin(), phases.end(),
            [&](const PhaseStats& p) { return p.label == label; });
        if (it == phases.end()) {
          phases.push_back({label, 0, 0, r->round, r->round});
          it = phases.end() - 1;
        }
        it->marks += count;
        it->rounds_active += 1;
        it->first_round = std::min(it->first_round, r->round);
        it->last_round = std::max(it->last_round, r->round);
      }
    }
    if (!phases.empty()) {
      std::sort(phases.begin(), phases.end(),
                [](const PhaseStats& a, const PhaseStats& b) {
                  return a.marks > b.marks;
                });
      Table ptab({"algorithm phase", "node-rounds", "rounds active", "first",
                  "last"});
      for (const PhaseStats& p : phases) {
        ptab.row().cell(p.label).cell(p.marks).cell(p.rounds_active).cell(
            p.first_round).cell(p.last_round);
      }
      std::cout << ptab << "\n";
    }

    std::vector<const TraceRound*> shown = rounds;
    bool truncated = false;
    if (max_rounds > 0 && shown.size() > max_rounds) {
      std::sort(shown.begin(), shown.end(),
                [](const TraceRound* a, const TraceRound* b) {
                  return round_wall_s(*a) > round_wall_s(*b);
                });
      shown.resize(max_rounds);
      std::sort(shown.begin(), shown.end(),
                [](const TraceRound* a, const TraceRound* b) {
                  return a->round < b->round;
                });
      truncated = true;
    }
    if (truncated) {
      std::cout << "### " << shown.size() << " slowest of " << rounds.size()
                << " rounds (rerun with --rounds 0 for all)\n\n";
    }
    Table rtab({"round", "path", "live", "sent", "delivered", "dropped",
                "halted", "bits", "step us", "commit us", "scatter us",
                "phases"});
    for (const TraceRound* r : shown) {
      std::string phase_cell;
      for (const auto& [label, count] : r->phases) {
        if (!phase_cell.empty()) phase_cell += " ";
        phase_cell += label + ":" + std::to_string(count);
      }
      rtab.row()
          .cell(r->round)
          .cell(std::string(dflp::net::trace_path_name(r->path)))
          .cell(r->live)
          .cell(r->sent)
          .cell(r->delivered)
          .cell(r->dropped)
          .cell(r->halted)
          .cell(r->bits)
          .cell(r->step_s * 1e6, 1)
          .cell(r->commit_s * 1e6, 1)
          .cell(r->scatter_s * 1e6, 1)
          .cell(phase_cell);
    }
    std::cout << rtab << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  std::size_t max_rounds = 30;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--rounds" && i + 1 < argc) {
      // The whole count, as dflp_cli reads numbers: no prefix, no sign.
      const std::string_view text = argv[++i];
      const char* const end = text.data() + text.size();
      const auto [ptr, ec] = std::from_chars(text.data(), end, max_rounds);
      if (ec != std::errc{} || ptr != end) {
        std::cerr << "trace_report: --rounds must be a non-negative integer; "
                     "got '"
                  << text << "'\n";
        return 2;
      }
    } else if (path.empty()) {
      path = arg;
    } else {
      path.clear();
      break;
    }
  }
  if (path.empty()) {
    std::cerr << "usage: trace_report <trace.jsonl|-> [--rounds N]\n";
    return 2;
  }

  try {
    ParsedTrace trace;
    if (path == "-") {
      trace = dflp::net::read_trace_jsonl(std::cin);
    } else {
      std::ifstream in(path);
      DFLP_CHECK_MSG(in.good(), "cannot open '" << path << "'");
      trace = dflp::net::read_trace_jsonl(in);
    }
    return report(trace, max_rounds);
  } catch (const std::exception& e) {
    std::cerr << "trace_report: " << e.what() << "\n";
    return 1;
  }
}
