// Per-node staging facade for the step phase of the round engine.
//
// The step/commit contract
// ------------------------
// A round executes in two phases. In the *step* phase every live node is
// invoked with its inbox and writes its sends and its halt request through
// a `RoundBuffer` into the round's `StageLog` (netsim/network.h) — never
// into the delivery arena. The engine re-arms one buffer per node step, so
// the log fills in ascending node order. In the *commit* phase the engine
// drains the log in that canonical order, applies fault injection, and
// moves the surviving records into next round's inboxes. Because every
// random draw comes from a stream derived from `(seed, node, round)`
// (common/rng.h `derive_stream_seed`), the whole execution is a pure
// function of (topology, processes, seed).
//
// The buffer owns all CONGEST legality checks (adjacency, honest bit
// declaration, per-message budget, one message per directed link per
// round, reserved opcodes), so they fire inside the sending node's own
// step. The link rule has one mechanism on every topology:
// a unicast or frame stamps its link's slot in a `LinkStamps` column
// (netsim/network.h) indexed by neighbour position, and begin() re-arms the
// column by bumping its epoch. A broadcast uses every link, so it is legal
// only as the step's first send and bars every later one — an O(1) check,
// not a per-link one. It is staged as ONE flagged WireRecord with its
// message/bit bill settled analytically — the commit never touches
// `degree` copies until the final scatter writes their slots, and a pull
// round (netsim/network.h) leaves them to the receivers' gathers.
//
// NodeContext calls into this one class directly: the engine's `Network`
// stages every node step through it, and the reliable channel
// (netsim/reliable.h) stages its wrapped protocol's logical rounds through
// a standalone one. The standalone consumer omits the log and link
// arguments of begin() and the buffer uses its own private ones instead.
// It omits the wake slot too, so the buffer drops NodeContext::sleep_until
// hints: only the engine skips sleeping nodes (netsim/network.h).
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "netsim/message.h"
#include "netsim/network.h"

namespace dflp::net {

class RoundBuffer final {
 public:
  /// Legality limits checked at send time, supplied by the transport.
  struct Limits {
    int bit_budget = 64;
    /// Largest opcode the staged protocol may use (the reliable channel
    /// reserves the opcodes above ReliableChannel::kMaxProtocolKind for its
    /// control frames).
    std::uint8_t max_kind = 0xFF;
    /// Record NodeContext::annotate phase labels for the round tracer
    /// (netsim/trace.h). Off by default: annotations are dropped by
    /// annotate(), so untraced runs pay only its flag test.
    bool capture_annotations = false;
    /// The engine's destination tally (netsim/network.h), set when the run
    /// has no message hazards: every staged copy bumps `dst_count[dst]`,
    /// and a destination's first copy is appended to `touched`, so the
    /// commit has nothing left to count. Null (standalone consumers, and
    /// the engine under hazards, whose commit counts surviving copies)
    /// skips the tally.
    std::int32_t* dst_count = nullptr;
    std::vector<NodeId>* touched = nullptr;
  };

  RoundBuffer() = default;

  /// Re-arms the buffer for one (node, round) step. `neighbors` must be the
  /// node's adjacency and must outlive the step: sorted on explicit graphs,
  /// the engine's rotation (all nodes but the owner, starting after it) when
  /// `clique` is set — a destination's position in the rotation is then
  /// computed, not searched. `log` receives the staged records, halts and
  /// annotations; nullptr (the standalone default) selects the
  /// buffer's private log, which is cleared here — capacity is retained
  /// across rounds. `links` is the engine's link-stamp column; nullptr
  /// selects the buffer's own. Either is grown to the degree if needed and
  /// re-armed by an epoch bump, so re-arming is O(1), never a zero-fill.
  /// `wake` is the owner's entry in the engine's wake column: begin() sets
  /// it to 0 (awake) and sleep hints overwrite it; nullptr (standalone)
  /// drops the hints.
  void begin(NodeId node, std::uint64_t round,
             std::span<const NodeId> neighbors, const Limits& limits,
             StageLog* log = nullptr, LinkStamps* links = nullptr,
             bool clique = false, std::uint32_t* wake = nullptr);

  // Called by NodeContext during the owner's step; `from` and `node` name
  // the stepping node and must be the owner.
  void send(NodeId from, NodeId to, std::uint8_t kind,
            std::array<std::int64_t, 3> fields, int bits);
  /// Broadcast fast path: validates the payload once, requires that the
  /// owner has sent nothing yet this step, settles the batched bit
  /// accounting analytically, then stages a single kWireBroadcast record —
  /// the commit expands it over the neighbours only at scatter time, or
  /// the receivers read it in a pull round. A
  /// node with no neighbours broadcasts nothing and uses up nothing.
  void broadcast(NodeId from, std::uint8_t kind,
                 std::array<std::int64_t, 3> fields, int bits);
  /// Transport-layer frame path used by the reliable channel: the frame
  /// arrives fully formed (header already attached) and is exempt from the
  /// `max_kind` protocol-opcode cap and is raised to its honest size rather
  /// than rejected, but still pays the budget, adjacency and link checks.
  /// The header goes into the log's header column at the record's index,
  /// not into the staged record.
  void send_frame(NodeId from, const Message& frame);
  void halt(NodeId node);
  /// Writes the wake round into the owner's wake slot, if begin() got one,
  /// saturated to 32 bits (an early wake is always allowed).
  void sleep_until(NodeId node, std::uint64_t round);
  /// Captures the phase label when `Limits::capture_annotations` is set,
  /// drops it otherwise. Labels are stored as views — callers pass string
  /// literals (see NodeContext::annotate) that outlive the commit drain.
  void annotate(NodeId node, std::string_view phase);

  /// Records staged by the owner since begin(), in send-call order, with
  /// resolved bit sizes (>= the honest minimum). A broadcast appears as one
  /// kWireBroadcast record; use for_each_staged() for the expanded view.
  [[nodiscard]] std::span<const WireRecord> staged() const noexcept {
    return {log_->records.data() + rec_begin_,
            log_->records.size() - rec_begin_};
  }

  /// Invokes `fn(std::size_t port, NodeId dst, const WireRecord&)` once per
  /// staged message copy in send-call order, expanding broadcast records
  /// over the adjacency in neighbour order — exactly the copy sequence the
  /// legacy per-copy staging produced. `port` is the owner's side of the
  /// link: the position of `dst` in the adjacency.
  template <typename Fn>
  void for_each_staged(Fn&& fn) const {
    const std::span<const WireRecord> recs = staged();
    for (std::size_t r = 0; r < recs.size(); ++r) {
      const WireRecord& rec = recs[r];
      if (rec.flags & kWireBroadcast) {
        for (std::size_t k = 0; k < neighbors_.size(); ++k)
          fn(k, neighbors_[k], rec);
      } else {
        fn(static_cast<std::size_t>(log_->ports[rec_begin_ + r]), rec.dst,
           rec);
      }
    }
  }

  [[nodiscard]] bool halt_requested() const noexcept { return halt_; }

  /// Whether any message was staged to the neighbour at `neighbor_idx`
  /// (position in the adjacency list) — the reliable channel's silent-link
  /// query for end-of-round tokens. A broadcast counts as a send on every
  /// link.
  [[nodiscard]] bool sent_to(std::size_t neighbor_idx) const {
    return broadcast_ || links_->stamp[neighbor_idx] == links_->epoch;
  }

 private:
  /// The checks every send path shares — owner, opcode up to `max_kind`,
  /// declared size against the honest minimum, and the bit budget — and
  /// the record they admit (destination and flags left for the caller).
  [[nodiscard]] WireRecord checked_payload(NodeId from, std::uint8_t kind,
                                           std::array<std::int64_t, 3> fields,
                                           int bits, int honest,
                                           std::uint8_t max_kind) const;

  /// Checks that `to` is a neighbour and that its link is still unused this
  /// step (no earlier unicast, frame or broadcast), then stamps the link.
  /// Returns the link's position in the owner's adjacency (its port).
  [[nodiscard]] std::int32_t charge_link(NodeId to);

  /// Appends one single-destination record and its sender-side port to the
  /// log and settles its accounting (aggregates plus, when enabled, the
  /// destination tally).
  void stage_single(const WireRecord& rec, std::int32_t port);

  NodeId owner_ = kNoNode;
  std::uint64_t round_ = 0;
  std::span<const NodeId> neighbors_;
  Limits limits_;
  StageLog* log_ = &own_log_;
  std::size_t rec_begin_ = 0;  ///< owner's first record within *log_
  LinkStamps* links_ = &own_links_;
  std::uint32_t* wake_ = nullptr;  ///< owner's wake slot; nullptr drops hints
  StageLog own_log_;      ///< standalone fallback
  LinkStamps own_links_;  ///< standalone fallback
  bool clique_ = false;     ///< neighbors_ is the clique rotation
  bool broadcast_ = false;  ///< the owner broadcast this step: links all used
  bool halt_ = false;
};

}  // namespace dflp::net
