#include "netsim/fault.h"

#include <algorithm>
#include <limits>

#include "common/check.h"

namespace dflp::net {

namespace {

// Stream-family salts. kIidDropSalt is the engine's historical fault salt:
// the legacy drop stream must keep producing the exact coin sequence that
// the committed drop-failure goldens were recorded under, so it is frozen
// and keyed by the *network* seed only. The remaining salts are new
// families keyed by the mixed plan seed.
constexpr std::uint64_t kIidDropSalt = 0xD20BB4B1D20BB4B3ULL;
constexpr std::uint64_t kDuplicateSalt = 0xD0B1E5EBD0B1E5EDULL;
constexpr std::uint64_t kBurstChainSalt = 0xB4257C4A12D7E9A1ULL;
constexpr std::uint64_t kCrashSalt = 0xC4A54057C4A54059ULL;

[[nodiscard]] std::uint64_t link_key(NodeId src, NodeId dst) noexcept {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) << 32) |
         static_cast<std::uint64_t>(static_cast<std::uint32_t>(dst));
}

void check_probability(double p, const char* name) {
  DFLP_CHECK_MSG(p >= 0.0 && p <= 1.0,
                 "FaultPlan: " << name << " must be in [0, 1], got " << p);
}

}  // namespace

void validate_fault_options(const FaultPlan::Options& options) {
  check_probability(options.drop_probability, "drop_probability");
  check_probability(options.duplicate_probability, "duplicate_probability");
  check_probability(options.burst.p_good_to_bad, "burst.p_good_to_bad");
  check_probability(options.burst.p_bad_to_good, "burst.p_bad_to_good");
  DFLP_CHECK_MSG(!options.burst.enabled() || options.burst.p_bad_to_good > 0.0,
                 "FaultPlan: burst.p_bad_to_good must be > 0 when burst loss "
                 "is enabled (a link would stay bad forever)");
  check_probability(options.random_crash_fraction, "random_crash_fraction");
}

FaultPlan::FaultPlan(Options options, std::uint64_t network_seed,
                     std::size_t num_nodes)
    : options_(std::move(options)), network_seed_(network_seed) {
  validate_fault_options(options_);
  plan_seed_ = derive_stream_seed(network_seed_, options_.fault_seed,
                                  0xFA017B1A7FA017B3ULL);

  const auto n = static_cast<NodeId>(num_nodes);
  std::vector<std::uint64_t> crash_round(
      num_nodes, std::numeric_limits<std::uint64_t>::max());
  for (const CrashEvent& e : options_.crashes) {
    DFLP_CHECK_MSG(e.node >= 0 && e.node < n,
                   "FaultPlan: crash event for node " << e.node
                                                      << " out of range, n="
                                                      << n);
    auto& r = crash_round[static_cast<std::size_t>(e.node)];
    r = std::min(r, e.round);
  }
  if (options_.random_crash_fraction > 0.0) {
    for (std::size_t i = 0; i < num_nodes; ++i) {
      Rng rng(derive_stream_seed(plan_seed_ ^ kCrashSalt, i, 0));
      if (!rng.bernoulli(options_.random_crash_fraction)) continue;
      std::uint64_t when = options_.random_crash_round;
      if (options_.random_crash_round_span > 0) {
        when += rng.uniform_u64(options_.random_crash_round_span + 1);
      }
      auto& r = crash_round[i];
      r = std::min(r, when);
    }
  }
  for (std::size_t i = 0; i < num_nodes; ++i) {
    if (crash_round[i] != std::numeric_limits<std::uint64_t>::max()) {
      crash_schedule_.push_back(
          {static_cast<NodeId>(i), crash_round[i]});
    }
  }
  std::sort(crash_schedule_.begin(), crash_schedule_.end(),
            [](const CrashEvent& a, const CrashEvent& b) {
              if (a.round != b.round) return a.round < b.round;
              return a.node < b.node;
            });
}

FaultPlan::SenderCoins FaultPlan::begin_sender(NodeId sender,
                                               std::uint64_t round) const {
  const auto s = static_cast<std::uint64_t>(sender);
  return SenderCoins{
      Rng(derive_stream_seed(network_seed_ ^ kIidDropSalt, s, round)),
      Rng(derive_stream_seed(plan_seed_ ^ kDuplicateSalt, s, round))};
}

bool FaultPlan::link_bad(NodeId src, NodeId dst, std::uint64_t round) {
  const std::uint64_t key = link_key(src, dst);
  auto [it, inserted] = burst_state_.try_emplace(key);
  LinkState& state = it->second;
  // Fast-forward the chain with one coin per elapsed round, each drawn from
  // its own (link, round) stream — the evolution is independent of when
  // (or whether) intermediate rounds were queried. Rounds start good.
  const std::uint64_t from = inserted ? 0 : state.last_round + 1;
  for (std::uint64_t r = from; r <= round; ++r) {
    Rng rng(derive_stream_seed(plan_seed_ ^ kBurstChainSalt, key, r));
    state.bad = state.bad ? !rng.bernoulli(options_.burst.p_bad_to_good)
                          : rng.bernoulli(options_.burst.p_good_to_bad);
  }
  state.last_round = round;
  return state.bad;
}

FaultPlan::Fate FaultPlan::fate(SenderCoins& coins, NodeId src, NodeId dst,
                                std::uint64_t round) {
  Fate f;
  // Each hazard draws from its own stream, so enabling one never perturbs
  // another's coin sequence. The i.i.d. coin in particular is drawn exactly
  // once per staged message copy whenever drop_probability > 0 — the legacy
  // stream contract.
  if (options_.drop_probability > 0.0 &&
      coins.iid.bernoulli(options_.drop_probability)) {
    f.dropped = true;
  }
  if (!f.dropped && options_.burst.enabled() && link_bad(src, dst, round))
    f.dropped = true;
  if (!f.dropped && options_.duplicate_probability > 0.0 &&
      coins.dup.bernoulli(options_.duplicate_probability)) {
    f.duplicated = true;
  }
  return f;
}

}  // namespace dflp::net
