// Execution metrics collected by the simulator.
//
// The PODC'05 claims under validation are *complexity* claims — rounds,
// message counts, and per-message bit sizes — so the simulator measures all
// of them exactly rather than estimating.
#pragma once

#include <cstdint>
#include <string>

namespace dflp::net {

struct NetMetrics {
  /// Number of synchronous rounds executed (including the final quiescent
  /// detection round).
  std::uint64_t rounds = 0;

  /// Total messages delivered over the whole execution.
  std::uint64_t messages = 0;

  /// Total declared bits over all delivered messages.
  std::uint64_t total_bits = 0;

  /// Largest single-message declared size observed (bits). CONGEST
  /// compliance means this stays <= the configured budget, which itself is
  /// c * ceil(log2 N) for a small constant c.
  int max_message_bits = 0;

  /// Largest number of messages sent in any single round.
  std::uint64_t max_messages_in_round = 0;

  /// Messages dropped by fault injection (0 unless enabled) — the sum over
  /// every loss hazard (i.i.d., burst, partition).
  std::uint64_t dropped = 0;

  /// Extra copies delivered by fault-injected duplication.
  std::uint64_t duplicated = 0;

  /// Nodes removed by crash-stop fault injection.
  std::uint64_t crashed = 0;

  /// Identity of the first message lost to fault injection, recorded so
  /// failure diagnostics can name it. Valid when `dropped > 0`.
  std::uint64_t first_drop_round = 0;
  std::int32_t first_drop_src = -1;
  std::int32_t first_drop_dst = -1;
  std::uint8_t first_drop_kind = 0;

  /// Folds the metrics of a later part of the same execution (a resumed
  /// run, a pipeline stage, an FTFP phase) into this one: counters sum,
  /// high-water marks take the max, and the first drop of the earliest part
  /// that dropped anything is kept.
  void merge(const NetMetrics& later) noexcept;

  /// Human-readable one-line summary.
  [[nodiscard]] std::string to_string() const;
};

}  // namespace dflp::net
