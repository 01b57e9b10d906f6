// Epoch-batched streaming solver service.
//
// A `StreamingSolver` owns the live `fl::InstanceSnapshot`, ingests client
// arrivals and departures into a pending `fl::DeltaLog`, and on
// `commit_epoch()` applies the batch (snapshot epoch + 1) and re-solves
// incrementally over the fixed facility set:
//
//   1. The schedule is *pinned*: derived once from the deployment's
//      declared capacity bounds (`core::derive_schedule_from_bounds`) and
//      handed to every runner via `MwParams::pinned_schedule`, so a solve
//      is a pure function of (sub-instance, seed, schedule).
//   2. A component's *key* is its smallest member facility's id, which
//      never changes, and its per-solve seed derives from that key alone.
//      Because apply() renumbers clients monotonically, an untouched
//      component reproduces the identical sub-instance epoch after epoch.
//   3. Reuse is decided by the epoch's *dirty region*: the components of
//      the new snapshot that hold a surviving client a delta names, a
//      facility an arrival names, or a facility of a departed client (a
//      departure is the only way a component can split). One BFS from
//      those seeds finds exactly these components, and only they re-run
//      the distributed solver. Every other component is a component of the
//      previous epoch with the same members and key; its open flags carry
//      over as they are and its assignment through the old -> new client
//      map.
//
// The from-scratch baseline is the same machinery with every node marked
// dirty (`warm_start = false`, and always at epoch 0), so warm and cold
// runs produce bit-identical solutions and costs on every epoch by
// construction — the property service_test pins down and bench_stream
// (E13) relies on.
//
// Every epoch yields an `EpochReport` with cost, rounds/messages of the
// solved components, and *recourse*: open-facility churn and the number of
// surviving clients whose assigned facility changed, clients matched by
// stable key so epoch-to-epoch comparisons are well-defined. Only the
// dirty region can differ from the previous epoch, so that is where
// recourse is counted.
//
// A commit that throws (an inconsistent delta, a snapshot outgrowing the
// declared bounds) drops its batch and leaves the service at its previous
// epoch: snapshot, solution, report and component table.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/params.h"
#include "fl/delta.h"
#include "fl/solution.h"
#include "workload/stream.h"

namespace dflp::service {

/// Capacity bounds that dominate every snapshot a `workload::ClientStream`
/// with these params can reach within `max_events` emitted events: the
/// facility set is static, costs come from the generator's fixed ranges,
/// and the client population is bounded by initial + every possible
/// arrival. Deriving the pinned schedule from these keeps solves exact
/// across the whole stream. Throws dflp::CheckError, naming the parameter,
/// when num_cells * facilities_per_cell or the node count facilities +
/// initial_clients + max_events exceeds the int32 node limit.
[[nodiscard]] core::InstanceBounds stream_bounds(
    const workload::StreamParams& params, std::int64_t max_events);

/// Which distributed solver runs per component.
enum class SolveEngine : std::uint8_t {
  kMwGreedy,  ///< combinatorial greedy (paper's primary algorithm)
  kPipeline,  ///< core::run_pipeline: fractional LP stage + rounding
};
[[nodiscard]] std::string engine_name(SolveEngine engine);

struct StreamingOptions {
  /// Solver knobs; `seed` is the stream-level base seed (per-component
  /// seeds derive from it), `pinned_schedule` is managed by the service
  /// and must be left null. `mopup` must stay enabled: the service
  /// asserts feasibility of every epoch's solution.
  core::MwParams params;
  /// Declared capacity bounds; the pinned schedule is derived from these,
  /// and every epoch's snapshot must stay within them (checked loudly).
  core::InstanceBounds bounds;
  SolveEngine engine = SolveEngine::kMwGreedy;
  /// False = from-scratch baseline: every component re-solves each epoch.
  bool warm_start = true;
};

/// Open-facility churn and client reassignment between consecutive epochs;
/// clients are matched by stable key.
struct Recourse {
  std::int64_t facilities_opened = 0;  ///< open now, not open last epoch
  std::int64_t facilities_closed = 0;  ///< open last epoch, not open now
  /// Clients present in both epochs whose assigned facility changed.
  std::int64_t clients_reassigned = 0;
  std::int64_t clients_arrived = 0;
  std::int64_t clients_departed = 0;
};

struct EpochReport {
  fl::EpochId epoch = 0;
  std::size_t events = 0;  ///< deltas applied by this commit
  double cost = 0.0;
  /// Sum of component LP values (pipeline engine only; 0 under mw-greedy).
  double fractional_value = 0.0;
  /// Components run disjoint networks, so rounds is the max (depth) and
  /// messages the sum over components *solved this epoch*; an epoch that
  /// reused everything reports 0/0.
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;
  std::int64_t num_facilities = 0;
  std::int64_t num_clients = 0;
  std::int64_t components = 0;
  std::int64_t solved_components = 0;
  std::int64_t reused_components = 0;
  Recourse recourse;
  double apply_ms = 0.0;  ///< snapshot splice (delta-log apply)
  double solve_ms = 0.0;  ///< dirty region + solves + carry-over + recourse
  double total_ms = 0.0;
};

class StreamingSolver {
 public:
  /// Solves the initial snapshot immediately (its report is epoch 0 with
  /// zero events; see `last_report()`).
  StreamingSolver(fl::InstanceSnapshot initial, StreamingOptions options);

  /// Queues one update for the next epoch.
  void ingest(fl::Delta delta) { pending_.append(std::move(delta)); }

  /// Applies the pending batch as one epoch and re-solves. Valid with an
  /// empty batch (epoch still advances; everything reuses under warm
  /// start). The batch is consumed either way: when the commit throws,
  /// the service stays at its previous epoch.
  EpochReport commit_epoch();

  [[nodiscard]] const fl::InstanceSnapshot& snapshot() const noexcept {
    return snapshot_;
  }
  /// Current solution, dense ids aligned to `snapshot()`.
  [[nodiscard]] const fl::IntegralSolution& solution() const noexcept {
    return solution_;
  }
  [[nodiscard]] const EpochReport& last_report() const noexcept {
    return last_report_;
  }

 private:
  /// One component of the current snapshot, in key order, with what the
  /// report sums over every component.
  struct ComponentEntry {
    fl::FacilityId facility = 0;  ///< smallest member facility (its key)
    double fractional_value = 0.0;  ///< pipeline engine's LP value
  };

  /// A dirty component's members, dense and ascending.
  struct Component {
    std::vector<fl::FacilityId> facilities;
    std::vector<fl::ClientId> clients;
  };

  struct SolveResult {
    double fractional_value = 0.0;
    std::uint64_t rounds = 0;
    std::uint64_t messages = 0;
  };

  /// Re-solves the dirty region of `next` (all of it when `all_dirty`),
  /// carries the rest over, and only then moves `next` and the results
  /// into the service.
  EpochReport resolve(fl::InstanceSnapshot next, const fl::DeltaLog& batch,
                      bool all_dirty);
  /// Solves `comp` of `snap` and writes its open flags and assignment
  /// into `solution`; `local_client` is scratch sized to the snapshot's
  /// clients.
  SolveResult solve_component(const fl::InstanceSnapshot& snap,
                              const Component& comp,
                              std::vector<std::int32_t>& local_client,
                              fl::IntegralSolution& solution) const;

  StreamingOptions options_;
  core::MwSchedule schedule_;
  fl::InstanceSnapshot snapshot_;
  fl::DeltaLog pending_;
  fl::IntegralSolution solution_;
  EpochReport last_report_;
  std::vector<ComponentEntry> components_;  ///< of snapshot_, key order
};

}  // namespace dflp::service
