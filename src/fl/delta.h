// Snapshot + delta-log representation of a *live* UFL instance.
//
// A static `fl::Instance` is immutable by design; a service under live
// traffic instead owns an `InstanceSnapshot` — an immutable instance plus
// an epoch id and *stable keys* for every facility and client — and an
// append-only `DeltaLog` of typed updates. `apply(snapshot, log)` produces
// the next snapshot (epoch + 1) by splicing the previous CSR arrays in a
// few linear passes: surviving rows are copied with removed peers dropped
// and ids renumbered, and only rows that gain an added edge or hold a
// re-priced one are sorted again. The result is bit-identical to building
// the mutated instance from scratch through `InstanceBuilder` in canonical
// order (the property tests pin this down), and so are the checks and
// their messages.
//
// Stable keys vs dense ids. Dense `FacilityId`/`ClientId` values are
// re-assigned on every apply() (survivors keep their relative order, new
// arrivals are appended in log order), so anything that must survive an
// epoch boundary — deltas, cached per-component solutions, recourse
// accounting — speaks stable `NodeKey`s instead. Keys are allocated
// strictly increasing per side and never reused, which keeps the dense
// renumbering monotone: the key vectors of every snapshot are sorted, and
// key -> dense lookups are binary searches.
#pragma once

#include <cstdint>
#include <vector>

#include "fl/instance.h"

namespace dflp::fl {

/// Stable identity of a facility or client across epochs. Facility and
/// client keys live in separate spaces.
using NodeKey = std::int64_t;
inline constexpr NodeKey kNoKey = -1;

/// Monotone epoch counter; epoch e is the result of e apply() steps.
using EpochId = std::int64_t;

/// One endpoint + cost of an edge carried by a delta; `peer` is a facility
/// key inside client deltas and a client key inside facility deltas.
struct KeyedEdge {
  NodeKey peer = kNoKey;
  Cost cost = 0.0;
};

/// One typed update. Use the factory functions; `apply()` validates fields
/// against the snapshot it is applied to and throws dflp::CheckError on
/// inconsistent updates (unknown keys, duplicate arrivals, edges to absent
/// nodes, a departure that would leave a client uncovered, ...).
struct Delta {
  enum class Kind : std::uint8_t {
    kClientArrive,    ///< new client + its initial edge set (>= 1 edge)
    kClientDepart,    ///< client leaves; its edges go with it
    kFacilityOpen,    ///< new candidate facility + its initial edge set
    kFacilityClose,   ///< facility decommissioned; must not orphan clients
    kEdgeCostChange,  ///< re-prices one existing edge
  };

  Kind kind = Kind::kClientArrive;
  NodeKey facility = kNoKey;    ///< open/close/edge-change
  NodeKey client = kNoKey;      ///< arrive/depart/edge-change
  Cost cost = 0.0;              ///< opening cost (open) / new edge cost
  std::vector<KeyedEdge> edges; ///< arrive: facility peers; open: clients

  static Delta client_arrive(NodeKey client, std::vector<KeyedEdge> edges);
  static Delta client_depart(NodeKey client);
  static Delta facility_open(NodeKey facility, Cost opening_cost,
                             std::vector<KeyedEdge> edges);
  static Delta facility_close(NodeKey facility);
  static Delta edge_cost_change(NodeKey facility, NodeKey client,
                                Cost new_cost);
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
  [[nodiscard]] bool empty() const noexcept { return deltas_.empty(); }
  /// Drops every entry (the only non-append mutation; used to recycle the
  /// batch buffer between epochs).
  void clear() { deltas_.clear(); }

 private:
  std::vector<Delta> deltas_;
};

/// Immutable instance + epoch id + stable-key maps. Copyable; apply()
/// returns a new snapshot and leaves the input untouched.
class InstanceSnapshot {
 public:
  /// Wraps a freshly built instance as epoch 0; facility i gets key i,
  /// client j gets key j.
  [[nodiscard]] static InstanceSnapshot initial(Instance inst);

  /// Re-assembles a snapshot from its parts, as apply() does. Key vectors
  /// must be strictly increasing (the invariant apply() maintains) and
  /// sized to the instance; next-key counters must exceed every present key.
  [[nodiscard]] static InstanceSnapshot restore(
      Instance inst, EpochId epoch, std::vector<NodeKey> facility_keys,
      std::vector<NodeKey> client_keys, NodeKey next_facility_key,
      NodeKey next_client_key);

  [[nodiscard]] const Instance& instance() const noexcept { return inst_; }
  [[nodiscard]] EpochId epoch() const noexcept { return epoch_; }

  [[nodiscard]] NodeKey facility_key(FacilityId i) const;
  [[nodiscard]] NodeKey client_key(ClientId j) const;

  /// Every present key, indexed by dense id (strictly increasing).
  [[nodiscard]] const std::vector<NodeKey>& facility_keys() const noexcept {
    return facility_keys_;
  }
  [[nodiscard]] const std::vector<NodeKey>& client_keys() const noexcept {
    return client_keys_;
  }

  /// Dense id currently bound to a key, or -1 when the key is not present
  /// in this snapshot. O(log m) / O(log n).
  [[nodiscard]] FacilityId facility_index(NodeKey key) const;
  [[nodiscard]] ClientId client_index(NodeKey key) const;

  /// Next fresh keys; arrivals in a delta log must use keys allocated from
  /// here upward, strictly increasing within the log.
  [[nodiscard]] NodeKey next_facility_key() const noexcept {
    return next_facility_key_;
  }
  [[nodiscard]] NodeKey next_client_key() const noexcept {
    return next_client_key_;
  }

  /// Default-constructs an *empty* snapshot (mirrors Instance()); only a
  /// placeholder to move a real snapshot into.
  InstanceSnapshot() = default;

 private:
  Instance inst_;
  EpochId epoch_ = 0;
  std::vector<NodeKey> facility_keys_;  // dense -> stable, sorted ascending
  std::vector<NodeKey> client_keys_;    // dense -> stable, sorted ascending
  NodeKey next_facility_key_ = 0;
  NodeKey next_client_key_ = 0;
};

/// Applies `log` to `snap`, producing the epoch+1 snapshot. Survivor nodes
/// keep their relative dense order; arrivals are appended in log order.
/// Edge-cost changes re-price the edge in the *final* topology
/// (last-writer-wins when a log re-prices the same edge twice); a change
/// whose edge or endpoints do not survive the log is an error. Throws
/// dflp::CheckError on any inconsistent delta.
[[nodiscard]] InstanceSnapshot apply(const InstanceSnapshot& snap,
                                     const DeltaLog& log);

}  // namespace dflp::fl
