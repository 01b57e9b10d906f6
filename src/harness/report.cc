#include "harness/report.h"

#include <iostream>

namespace dflp::harness {

Table results_table(const std::vector<RunResult>& results) {
  Table table({"algorithm", "cost", "ratio-vs-LB", "rounds", "messages",
               "kbits", "max-msg-bits", "dropped", "crashed",
               "retx", "dilation", "wall-ms"});
  for (const RunResult& r : results) {
    table.row()
        .cell(r.algo)
        .cell(r.cost, 2)
        .cell(r.ratio, 3)
        .cell(r.rounds)
        .cell(r.messages)
        .cell(static_cast<double>(r.total_bits) / 1000.0, 1)
        .cell(r.max_message_bits)
        .cell(r.dropped)
        .cell(r.crashed)
        .cell(r.retransmitted)
        .cell(r.round_dilation, 2)
        .cell(r.wall_ms, 2);
  }
  return table;
}

Table stream_table(const std::vector<service::EpochReport>& reports) {
  Table table({"epoch", "events", "clients", "cost", "rounds", "messages",
               "solved", "reused", "opened", "closed", "reassigned",
               "arrived", "departed", "apply-ms", "solve-ms", "wall-ms"});
  for (const service::EpochReport& r : reports) {
    table.row()
        .cell(static_cast<std::int64_t>(r.epoch))
        .cell(static_cast<std::uint64_t>(r.events))
        .cell(r.num_clients)
        .cell(r.cost, 2)
        .cell(r.rounds)
        .cell(r.messages)
        .cell(r.solved_components)
        .cell(r.reused_components)
        .cell(r.recourse.facilities_opened)
        .cell(r.recourse.facilities_closed)
        .cell(r.recourse.clients_reassigned)
        .cell(r.recourse.clients_arrived)
        .cell(r.recourse.clients_departed)
        .cell(r.apply_ms, 2)
        .cell(r.solve_ms, 2)
        .cell(r.total_ms, 2);
  }
  return table;
}

void print_section(const std::string& title, const std::string& subtitle,
                   const Table& table) {
  std::cout << "\n## " << title << "\n";
  if (!subtitle.empty()) std::cout << subtitle << "\n";
  std::cout << "\n" << table.to_markdown() << std::flush;
}

}  // namespace dflp::harness
