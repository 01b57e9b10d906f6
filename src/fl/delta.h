// Snapshot + delta-log representation of a *live* UFL instance.
//
// A static `fl::Instance` is immutable by design; a service under live
// client traffic instead owns an `InstanceSnapshot` — an immutable
// instance plus an epoch id and a *stable key* for every client — and an
// append-only `DeltaLog` of client arrivals and departures. The facility
// set, its opening costs and the costs of edges already present are fixed
// for the life of the snapshot chain. `apply(snapshot, log)` produces the
// next snapshot (epoch + 1) by splicing the previous CSR arrays in a few
// linear passes: surviving client rows are copied, departed clients are
// dropped from the facility rows with the remaining ids renumbered, and
// only rows that gain an arrival's edge are sorted again. The result is
// bit-identical to building the mutated instance from scratch through
// `InstanceBuilder` in canonical order (the property tests pin this down),
// and so are the checks and their messages.
//
// Stable keys vs dense ids. A facility's dense `FacilityId` never changes,
// so it is its own key. Dense `ClientId` values are re-assigned on every
// apply() (survivors keep their relative order, arrivals are appended in
// log order), so anything that must survive an epoch boundary — deltas,
// recourse accounting — names a client by its stable `NodeKey`. Client
// keys are allocated strictly increasing and never reused, which keeps the
// dense renumbering monotone: every snapshot's key vector is sorted, and
// key -> dense lookups are binary searches.
#pragma once

#include <cstdint>
#include <vector>

#include "fl/instance.h"

namespace dflp::fl {

/// Stable identity of a client across epochs.
using NodeKey = std::int64_t;
inline constexpr NodeKey kNoKey = -1;

/// Monotone epoch counter; epoch e is the result of e apply() steps.
using EpochId = std::int64_t;

/// One edge of an arriving client: the facility it reaches and its cost.
struct KeyedEdge {
  FacilityId peer = kNoFacility;
  Cost cost = 0.0;
};

/// One client update. Use the factory functions; `apply()` validates
/// fields against the snapshot it is applied to and throws
/// dflp::CheckError on inconsistent updates (stale or unknown keys, edges
/// to absent facilities, an arrival without an edge, ...).
struct Delta {
  enum class Kind : std::uint8_t {
    kClientArrive,  ///< new client + its edge set (>= 1 edge)
    kClientDepart,  ///< client leaves; its edges go with it
  };

  Kind kind = Kind::kClientArrive;
  NodeKey client = kNoKey;
  std::vector<KeyedEdge> edges;  ///< arrive: the client's facilities

  static Delta client_arrive(NodeKey client, std::vector<KeyedEdge> edges);
  static Delta client_depart(NodeKey client);
};

/// Append-only batch of updates; the streaming service fills one per epoch
/// and hands it to apply().
class DeltaLog {
 public:
  void append(Delta delta) { deltas_.push_back(std::move(delta)); }
  [[nodiscard]] const std::vector<Delta>& deltas() const noexcept {
    return deltas_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return deltas_.size(); }
  /// Drops every entry (the only non-append mutation; used to recycle the
  /// batch buffer between epochs).
  void clear() { deltas_.clear(); }

 private:
  std::vector<Delta> deltas_;
};

/// Immutable instance + epoch id + client key map. Copyable; apply()
/// returns a new snapshot and leaves the input untouched.
class InstanceSnapshot {
 public:
  /// Wraps a freshly built instance as epoch 0; client j gets key j.
  [[nodiscard]] static InstanceSnapshot initial(Instance inst);

  /// Re-assembles a snapshot from its parts, as apply() does. The key
  /// vector must be strictly increasing (the invariant apply() maintains)
  /// and sized to the instance's clients; the next-key counter must exceed
  /// every present key.
  [[nodiscard]] static InstanceSnapshot restore(
      Instance inst, EpochId epoch, std::vector<NodeKey> client_keys,
      NodeKey next_client_key);

  [[nodiscard]] const Instance& instance() const noexcept { return inst_; }
  [[nodiscard]] EpochId epoch() const noexcept { return epoch_; }

  [[nodiscard]] NodeKey client_key(ClientId j) const;

  /// Every present client key, indexed by dense id (strictly increasing).
  [[nodiscard]] const std::vector<NodeKey>& client_keys() const noexcept {
    return client_keys_;
  }

  /// Dense id currently bound to a client key, or -1 when the key is not
  /// present in this snapshot. O(log n).
  [[nodiscard]] ClientId client_index(NodeKey key) const;

  /// Next fresh client key; arrivals in a delta log must use keys
  /// allocated from here upward, strictly increasing within the log.
  [[nodiscard]] NodeKey next_client_key() const noexcept {
    return next_client_key_;
  }

  /// Default-constructs an *empty* snapshot (mirrors Instance()); only a
  /// placeholder to move a real snapshot into.
  InstanceSnapshot() = default;

 private:
  Instance inst_;
  EpochId epoch_ = 0;
  std::vector<NodeKey> client_keys_;  // dense -> stable, sorted ascending
  NodeKey next_client_key_ = 0;
};

/// Applies `log` to `snap`, producing the epoch+1 snapshot. Every facility
/// keeps its id; surviving clients keep their relative dense order and
/// arrivals are appended in log order. Throws dflp::CheckError on any
/// inconsistent delta.
[[nodiscard]] InstanceSnapshot apply(const InstanceSnapshot& snap,
                                     const DeltaLog& log);

}  // namespace dflp::fl
