// Seeded client arrival/departure stream over a cell-structured topology.
//
// The streaming service (src/service/) is exercised with workloads shaped
// like a geo-sharded deployment: facilities live in `num_cells` independent
// cells and every client connects only to facilities of one cell, so the
// connectivity components of every epoch's snapshot stay cell-sized. That
// is the regime where incremental re-solving pays: an epoch's deltas touch
// a bounded set of cells, and every untouched cell's solution carries over
// verbatim.
//
// The generator is a deterministic function of (params, seed), emits
// events in O(1) amortized time each (1e6+ event streams are routine), and
// produces `fl::Delta` records directly so the whole pipeline — generator,
// delta log, service — shares one mutation path.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "fl/delta.h"

namespace dflp::workload {

struct StreamParams {
  std::int32_t num_cells = 64;
  std::int32_t facilities_per_cell = 4;
  /// Clients present in the epoch-0 snapshot (spread round-robin over
  /// cells; every cell starts with at least one client).
  std::int32_t initial_clients = 1024;
  /// Edges per client, clamped to facilities_per_cell; all edges stay
  /// inside the client's cell.
  std::int32_t client_degree = 3;
  /// Probability an event is an arrival; the rest are departures. Must be
  /// > 0.5 so the population drifts upward and never empties.
  double arrival_fraction = 0.55;
  double opening_lo = 20.0;
  double opening_hi = 200.0;
  double connection_lo = 1.0;
  double connection_hi = 20.0;
};

/// Stateful stream generator: builds the epoch-0 snapshot, then emits
/// arrival/departure deltas batch by batch. Departures pick a uniformly
/// random alive client; when the alive population is about to hit zero the
/// event is forced into an arrival so every snapshot stays buildable.
class ClientStream {
 public:
  ClientStream(const StreamParams& params, std::uint64_t seed);

  /// The epoch-0 snapshot the stream starts from.
  [[nodiscard]] const fl::InstanceSnapshot& initial_snapshot() const noexcept {
    return initial_;
  }

  /// Appends `count` events to `log` and advances the stream state.
  void fill_epoch(std::int32_t count, fl::DeltaLog& log);

 private:
  struct AliveClient {
    fl::NodeKey key;
    std::int32_t cell;
  };

  [[nodiscard]] fl::Delta make_arrival();

  StreamParams params_;
  Rng rng_;
  fl::InstanceSnapshot initial_;
  std::vector<AliveClient> alive_;
  fl::NodeKey next_client_key_ = 0;
  std::vector<std::int32_t> scratch_;  // sampling workspace
  std::vector<std::int32_t> slots_;
};

}  // namespace dflp::workload
