// Parameters and derived schedule for the reconstructed PODC'05 algorithms.
//
// The paper's trade-off knob is an integer k: more communication rounds buy
// a better approximation. Internally k splits into L = ceil(sqrt(k))
// *cost-effectiveness scales* (a geometric ladder of thresholds with ratio
// beta = (m * rho)^(1/L)) times L contention *sub-phases* per scale, for
// O(k) rounds total.
//
// What nodes are allowed to know. The paper assumes no global knowledge
// beyond a polynomial upper bound on the network size; every threshold here
// is a deterministic function of a-priori instance bounds (upper bounds on
// m, on the cost spread rho, and on the maximum degree), which stand in for
// that assumption. `derive()` computes them once from the instance — the
// way a deployment would bake conservative bounds into the protocol — and
// hands the same read-only schedule to every node.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "core/quantize.h"
#include "fl/instance.h"
#include "netsim/network.h"
#include "netsim/trace.h"

namespace dflp::core {

/// Ablation knob (E8): when does a candidate facility commit to opening?
enum class AcceptRule : std::uint8_t {
  /// Opens only when at least max(1, ceil(|star|/beta)) clients accepted —
  /// keeps the per-client price within a beta factor of the threshold.
  kFractionOfStar,
  /// Opens on any accept (aggressive; cheaper rounds, worse ratio).
  kAnyAccept,
};

struct MwSchedule;

struct MwParams {
  /// The paper's locality/quality trade-off parameter (k >= 1).
  int k = 4;
  /// Seed for every coin the distributed algorithms toss.
  std::uint64_t seed = 1;
  AcceptRule accept_rule = AcceptRule::kFractionOfStar;
  /// 0 = derive sub-phase count as ceil(sqrt(k)); otherwise force it (E8).
  int subphases_override = 0;
  /// Run the final deterministic mop-up that guarantees feasibility.
  /// Disabling it (E8) shows how much cost the scale schedule alone covers.
  bool mopup = true;
  /// Rounding stage: multiplier on the per-phase opening probability.
  double rounding_boost = 1.0;
  /// Fault injection plan for the simulator (netsim/fault.h): i.i.d. and
  /// burst message loss, bipartition windows, duplication, crash-stop
  /// failures. The paper's model is reliable (default: no faults); faulted
  /// runs either fail *loudly* (CheckError naming the first lost message)
  /// or opt into the recovery layer below.
  net::FaultPlan::Options faults;
  /// Run every process under the ReliableChannel adapter
  /// (netsim/reliable.h): acks + retransmissions recover message loss, so
  /// the run returns the bit-identical fault-free solution at the price of
  /// round dilation and header bits.
  bool reliable = false;
  /// Harness-level crash-before-start model: this fraction of facilities
  /// (seeded by `faults.fault_seed`) is removed before the algorithm runs;
  /// the survivors solve the pruned instance. Applied by
  /// harness/faults.h, not by the core runners.
  double boot_crash_fraction = 0.0;
  /// Ignored: the simulator steps every round on one thread. Kept only
  /// for callers that still set it.
  int num_threads = 1;
  /// Inbox ordering the simulator applies before each delivery. The
  /// reconstructed protocols are order-independent; tests sweep this to
  /// prove it.
  net::DeliveryOrder delivery = net::DeliveryOrder::kBySource;
  /// Round tracer (netsim/trace.h), not owned; attached to every network
  /// the runner builds. Purely observational — a traced run is
  /// bit-identical to an untraced one. The caller owns the Tracer and
  /// exports it (`dflp_cli solve --trace` writes it to a file).
  net::Tracer* tracer = nullptr;
  /// Warm-start entry point for epoch-batched re-solves (service layer):
  /// when non-null, every runner uses *this* schedule verbatim instead of
  /// re-deriving one from the instance at hand. A service derives the
  /// schedule once from its declared capacity bounds
  /// (`derive_schedule_from_bounds`) and pins it, so solves become pure
  /// functions of (sub-instance, seed, schedule) — the property that makes
  /// per-component solution reuse across epochs exact. Not owned; must
  /// outlive the run. The caller is responsible for deriving it from
  /// bounds that dominate the instance (thresholds bracket every star,
  /// bit budget covers N).
  const MwSchedule* pinned_schedule = nullptr;
};

/// The deterministic schedule every node runs against.
struct MwSchedule {
  int k = 1;
  int levels = 1;             ///< number of threshold rungs actually needed
  int subphases = 1;          ///< contention sub-phases per rung
  double beta = 2.0;          ///< geometric ratio of the rung ladder
  std::vector<double> thresholds;  ///< ascending; may start with 0.0
  CostCodec codec;            ///< quantizer for on-wire costs
  int num_network_nodes = 0;  ///< N = m + n (for budgets and whp targets)
  int bit_budget = 64;        ///< CONGEST per-message budget for this N
  /// Fractional stage: y values live on the grid beta^(s - y_scale),
  /// s = number of raises; beta^(-y_scale) <= 1/(m*rho_bound).
  int y_scale = 1;
  /// Rounding stage: number of randomized phases, Theta(log N).
  int rounding_phases = 1;

  /// Wake arithmetic over the rung ladder for a protocol that acts every
  /// `period` rounds, `subphases` times per rung (rung `level` spans rounds
  /// [level, level + 1) * period * subphases): the first round >= `from`
  /// that is a multiple of `period` and whose rung admits `ratio`
  /// (ratio <= thresholds[level]), or `otherwise` when no rung left does.
  [[nodiscard]] std::uint64_t first_admitting_round(
      std::uint64_t period, std::uint64_t from, double ratio,
      std::uint64_t otherwise) const;
};

/// A-priori instance bounds a deployment declares up front (the paper's
/// "polynomial bound on the network size" assumption made concrete). A
/// schedule derived from bounds is valid for *every* instance they
/// dominate, which is what lets a streaming service pin one schedule
/// across epochs and sub-instances.
struct InstanceBounds {
  std::int32_t max_facilities = 1;    ///< upper bound on m
  std::int32_t max_network_nodes = 2; ///< upper bound on N = m + n
  /// Lower bound on any positive cost; +inf declares "all costs zero".
  double min_positive_cost = std::numeric_limits<double>::infinity();
  double max_cost = 0.0;              ///< upper bound on any cost
  int max_facility_degree = 1;

  /// The tight bounds of one concrete instance.
  [[nodiscard]] static InstanceBounds of(const fl::Instance& inst);

  /// True when every bound of `other` is within this one (an instance with
  /// `other = of(inst)` may then run under this bounds' schedule).
  [[nodiscard]] bool dominates(const InstanceBounds& other) const;
};

/// Computes the schedule from declared a-priori bounds and k.
[[nodiscard]] MwSchedule derive_schedule_from_bounds(
    const InstanceBounds& bounds, const MwParams& params);

/// Computes the schedule from the instance's a-priori bounds and k; when
/// `params.pinned_schedule` is set, returns that schedule verbatim.
[[nodiscard]] MwSchedule derive_schedule(const fl::Instance& inst,
                                         const MwParams& params);

}  // namespace dflp::core
