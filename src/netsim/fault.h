// Seeded, deterministic fault injection for the round engine.
//
// The fault model covers four hazard families:
//   * i.i.d. message loss      — every staged message is dropped with a
//                                fixed probability (the legacy knob);
//   * burst loss               — per directed link, a Gilbert–Elliott
//                                good/bad chain: while a link is "bad",
//                                every message on it is dropped, so losses
//                                arrive in bursts rather than independently;
//   * message duplication      — a surviving message is delivered twice;
//   * crash-stop failures      — a node is removed (as if halted, but
//                                involuntarily) at a scheduled round, or at
//                                a sampled round for a seeded random subset.
//
// Determinism contract (the same one the engine itself honours): every coin
// is drawn from a stream derived by `derive_stream_seed` from
// (seed, entity, round) — entity being a sender, a directed link, or a node.
// No draw depends on the order nodes are stepped or on the delivery
// order; the commit phase consumes the per-sender streams in canonical
// ascending-sender order, and the per-link burst chains are advanced lazily
// with one coin per (link, round) regardless of when a link is first
// queried. A whole fault schedule is therefore a pure function of
// (Options, network seed, topology) — the engine-equivalence sweep pins
// this.
//
// Backward compatibility: `Options::drop_probability` reproduces the exact
// coin stream of the old `Network::Options::drop_probability` knob (same
// salt, same per-(sender, round) derivation, one Bernoulli per staged
// message in send order), so executions recorded under the old knob —
// including the committed drop-failure diagnostics — are bit-identical
// under the new plan.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "netsim/message.h"

namespace dflp::net {

/// Gilbert–Elliott two-state loss chain, evaluated per directed link. Each
/// round the link flips good->bad with `p_good_to_bad` and bad->good with
/// `p_bad_to_good`; while bad, every message on it is dropped. Mean burst
/// length is 1 / p_bad_to_good rounds.
struct BurstLossOptions {
  double p_good_to_bad = 0.0;
  double p_bad_to_good = 1.0;
  [[nodiscard]] bool enabled() const noexcept { return p_good_to_bad > 0.0; }
};

/// Crash-stop event: the node is removed before stepping `round`; it never
/// executes that round and its in-flight inbox is discarded.
struct CrashEvent {
  NodeId node = kNoNode;
  std::uint64_t round = 0;
};

class FaultPlan {
 public:
  struct Options {
    /// Independent per-message drop probability (legacy stream; 0 = off).
    double drop_probability = 0.0;
    /// Probability that a surviving message is delivered twice.
    double duplicate_probability = 0.0;
    /// Per-link burst loss (off unless p_good_to_bad > 0).
    BurstLossOptions burst;
    /// Scheduled crash-stop events.
    std::vector<CrashEvent> crashes;
    /// Additionally crash a seeded random subset of nodes: each node
    /// crashes with this probability, at round `random_crash_round` plus a
    /// uniform offset in [0, random_crash_round_span].
    double random_crash_fraction = 0.0;
    std::uint64_t random_crash_round = 0;
    std::uint64_t random_crash_round_span = 0;
    /// Extra entropy decorrelating the fault schedule from the engine seed.
    /// The legacy i.i.d. drop stream deliberately ignores it (see the file
    /// comment's compatibility note).
    std::uint64_t fault_seed = 0;

    [[nodiscard]] bool any_message_hazard() const noexcept {
      return drop_probability > 0.0 || duplicate_probability > 0.0 ||
             burst.enabled();
    }
  };

  /// Verdict for one staged message.
  struct Fate {
    bool dropped = false;
    bool duplicated = false;
  };

  /// Per-(sender, round) coin streams, created by the commit tally in
  /// canonical ascending-sender order. The i.i.d. and duplication coins are
  /// drawn from here, one per staged message in send order.
  struct SenderCoins {
    Rng iid;
    Rng dup;
  };

  FaultPlan() = default;

  /// Binds the plan to one execution. `network_seed` is the engine seed
  /// (Options::seed of the network); `num_nodes` bounds crash sampling.
  /// Throws CheckError on invalid options (probabilities outside [0,1],
  /// crash events out of node range).
  FaultPlan(Options options, std::uint64_t network_seed,
            std::size_t num_nodes);

  [[nodiscard]] bool message_hazards() const noexcept {
    return options_.any_message_hazard();
  }

  /// Crash events sorted by (round, node) — scheduled plus sampled random
  /// crashes, deduplicated per node (earliest round wins).
  [[nodiscard]] const std::vector<CrashEvent>& crash_schedule() const noexcept {
    return crash_schedule_;
  }

  /// Opens the coin streams for one sender's staged messages of one round.
  [[nodiscard]] SenderCoins begin_sender(NodeId sender,
                                         std::uint64_t round) const;

  /// Decides the fate of one staged message copy on the directed link
  /// src -> dst. `coins` must be the sender's streams for this round, and
  /// copies must be presented in send order (a broadcast counts one copy
  /// per neighbour, in adjacency order) — the engine's commit tally
  /// guarantees both. Only the endpoints matter, so the engine can judge
  /// packed WireRecords without materializing Messages. Mutates the lazily
  /// advanced burst chain state, so calls must happen in the (serial)
  /// commit phase.
  [[nodiscard]] Fate fate(SenderCoins& coins, NodeId src, NodeId dst,
                          std::uint64_t round);

 private:
  /// Advances the directed link's Gilbert–Elliott chain to `round` (one
  /// seeded coin per skipped round, independent of query pattern) and
  /// returns whether the link is in the bad state.
  [[nodiscard]] bool link_bad(NodeId src, NodeId dst, std::uint64_t round);

  Options options_;
  std::uint64_t network_seed_ = 0;
  /// Mixed base seed for the non-legacy streams.
  std::uint64_t plan_seed_ = 0;
  std::vector<CrashEvent> crash_schedule_;

  struct LinkState {
    std::uint64_t last_round = 0;
    bool bad = false;
  };
  std::unordered_map<std::uint64_t, LinkState> burst_state_;
};

/// Validates fault options standalone (probabilities in [0, 1], burst
/// parameters sane). Node-range checks for crash events need the
/// network size and happen in the FaultPlan constructor instead.
void validate_fault_options(const FaultPlan::Options& options);

}  // namespace dflp::net
