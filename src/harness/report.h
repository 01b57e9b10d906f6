// Rendering of harness results into the tables the bench binaries print.
#pragma once

#include <string>
#include <vector>

#include "common/table.h"
#include "harness/runner.h"
#include "service/streaming_solver.h"

namespace dflp::harness {

/// Standard columns: algo | cost | ratio | rounds | messages | kbits |
/// max-msg-bits | dropped | crashed | retx | dilation | wall-ms.
[[nodiscard]] Table results_table(const std::vector<RunResult>& results);

/// Streaming-epoch columns, one row per commit: epoch | events | clients |
/// cost | rounds | messages | solved | reused | opened | closed |
/// reassigned | arrived | departed | apply-ms | solve-ms | wall-ms. The
/// recourse columns (opened/closed/reassigned) are the churn metric
/// EXPERIMENTS.md E13 tracks alongside cost; apply-ms (delta-log apply) and
/// solve-ms (partition, component solves, assembly) sum to wall-ms.
[[nodiscard]] Table stream_table(
    const std::vector<service::EpochReport>& reports);

/// Prints a titled section with the lower-bound provenance to stdout.
void print_section(const std::string& title, const std::string& subtitle,
                   const Table& table);

}  // namespace dflp::harness
