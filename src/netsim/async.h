// Asynchronous execution and the alpha-synchronizer.
//
// The PODC'05 protocols are written for the synchronous CONGEST model. Real
// networks are asynchronous: messages arrive after arbitrary (here: random,
// seeded, bounded) delays. The classic bridge is Awerbuch's alpha
// synchronizer: tag every message with its logical round, send an explicit
// round token along every edge the protocol left silent, and advance a node
// to round r only after an item tagged r arrived from *every* neighbour.
// A node whose wrapped protocol halts announces FIN so neighbours stop
// waiting for it.
//
// The payoff is a strong correctness statement, verified by tests: running
// any synchronous `Process` under `Synchronizer` on an `AsyncNetwork`
// produces *bit-identical* results to the synchronous `Network` run with
// the same seed — inboxes are re-sorted by source, and per-node RNG streams
// are derived identically.
//
// Overheads (measured in AsyncMetrics): one token per silent edge per round
// per direction, and O(log(#rounds)) extra bits per message for the round
// tag.
#pragma once

#include <cstdint>
#include <memory>
#include <functional>
#include <queue>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "netsim/message.h"
#include "netsim/network.h"
#include "netsim/round_buffer.h"

namespace dflp::net {

struct AsyncMetrics {
  std::uint64_t deliveries = 0;      ///< events processed
  std::uint64_t payload_messages = 0;  ///< wrapped-protocol messages
  std::uint64_t control_messages = 0;  ///< tokens + FINs
  std::uint64_t total_bits = 0;        ///< includes round-tag overhead
  std::uint64_t virtual_time = 0;      ///< timestamp of the last delivery

  [[nodiscard]] std::string to_string() const;
};

class AsyncNetwork;

/// A reactive asynchronous node program.
class AsyncProcess {
 public:
  virtual ~AsyncProcess() = default;
  /// Invoked once before any delivery.
  virtual void on_start(NodeContext& ctx) = 0;
  /// Invoked per delivered message, in delivery order.
  virtual void on_message(NodeContext& ctx, const Message& msg) = 0;
};

/// Event-driven executor: each sent message is delivered after a uniformly
/// random integer delay in [1, max_delay] (seeded — reruns are identical).
/// Delivery may reorder messages even on one link; the synchronizer is
/// explicitly robust to that.
class AsyncNetwork final : public MessageSink {
 public:
  struct Options {
    int bit_budget = 64;   ///< checked per message, tag overhead included
    int max_delay = 16;    ///< >= 1
    std::uint64_t seed = 1;
  };

  AsyncNetwork(std::size_t num_nodes, Options options);

  void add_edge(NodeId u, NodeId v);
  void finalize();
  void set_process(NodeId id, std::unique_ptr<AsyncProcess> process);

  /// Runs start hooks then drains the event queue (or stops after
  /// max_events deliveries). Returns this run's metrics.
  AsyncMetrics run(std::uint64_t max_events);

  [[nodiscard]] std::size_t num_nodes() const noexcept {
    return processes_.size();
  }
  [[nodiscard]] const Options& options() const noexcept { return options_; }
  [[nodiscard]] std::span<const NodeId> neighbors_of(NodeId id) const;
  [[nodiscard]] AsyncProcess& process(NodeId id);
  [[nodiscard]] const AsyncProcess& process(NodeId id) const;
  [[nodiscard]] bool all_halted() const noexcept;

  // MessageSink (used by NodeContext during node code).
  void sink_send(NodeId from, NodeId to, std::uint8_t kind,
                 std::array<std::int64_t, 3> fields, int bits) override;
  void sink_halt(NodeId node) override;

  /// The round tag channel for the synchronizer: tags ride along with the
  /// next sink_send and are billed into its bit count.
  void set_outgoing_tag(std::int64_t tag) noexcept { outgoing_tag_ = tag; }

 private:
  struct Event {
    std::uint64_t time = 0;
    std::uint64_t seq = 0;  ///< tie-break: deterministic total order
    Message msg;
    std::int64_t tag = 0;
    bool operator>(const Event& other) const {
      if (time != other.time) return time > other.time;
      return seq > other.seq;
    }
  };

  Options options_;
  bool finalized_ = false;
  std::vector<std::pair<NodeId, NodeId>> edge_buffer_;
  Adjacency csr_;  ///< with the reverse positions that set Message::port
  std::vector<std::unique_ptr<AsyncProcess>> processes_;
  std::vector<Rng> node_rngs_;
  std::vector<std::uint8_t> halted_;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue_;
  Rng net_rng_;
  std::uint64_t now_ = 0;
  std::uint64_t seq_ = 0;
  NodeId current_sender_ = kNoNode;
  std::int64_t outgoing_tag_ = 0;
  std::int64_t current_incoming_tag_ = 0;
  AsyncMetrics metrics_;

  friend class Synchronizer;
  [[nodiscard]] std::int64_t current_incoming_tag() const noexcept {
    return current_incoming_tag_;
  }
};

/// Alpha-synchronizer adapter: runs a synchronous `Process` on an
/// AsyncNetwork. See the file comment for the protocol.
class Synchronizer final : public AsyncProcess {
 public:
  /// `inner` is the synchronous program; the adapter owns it.
  Synchronizer(AsyncNetwork& net, NodeId self,
               std::unique_ptr<Process> inner);

  void on_start(NodeContext& ctx) override;
  void on_message(NodeContext& ctx, const Message& msg) override;

  [[nodiscard]] Process& inner() noexcept { return *inner_; }
  [[nodiscard]] const Process& inner() const noexcept { return *inner_; }
  [[nodiscard]] std::uint64_t rounds_executed() const noexcept {
    return round_;
  }

  /// Control opcodes (reserved: wrapped protocols must not use them).
  static constexpr std::uint8_t kToken = 0xFE;
  static constexpr std::uint8_t kFin = 0xFF;

 private:
  void execute_round(NodeContext& ctx);
  void advance_while_ready(NodeContext& ctx);
  [[nodiscard]] bool ready_for_next() const;

  AsyncNetwork* net_;
  NodeId self_;
  std::unique_ptr<Process> inner_;
  std::uint64_t round_ = 0;  ///< next synchronous round to execute
  bool inner_halted_ = false;
  bool fin_sent_ = false;

  /// The inner protocol's sends stage here (same legality checks and
  /// send-order semantics as the synchronous engine's step phase); the
  /// commit in execute_round forwards them round-tagged onto the async
  /// network and emits tokens/FIN on the silent edges.
  RoundBuffer buffer_;

  // Per-neighbour bookkeeping, indexed by position in neighbors_of(self) —
  // the port a delivered message carries.
  // fin_after_[i] is meaningful when fin_from_[i] is set: the neighbour's
  // FIN satisfies only rounds strictly greater than fin_after_[i] — items
  // with tags <= fin_after_[i] are still in flight and must be awaited
  // (FIN may overtake them on a non-FIFO network).
  std::vector<std::uint8_t> fin_from_;
  std::vector<std::uint64_t> fin_after_;
  // Buffered payload messages and received-item flags per pending round:
  // round -> per-neighbour flag + messages. Rounds arrive at most
  // one-ahead? No: with reordering, items for several future rounds can be
  // in flight, so buffer generically.
  struct PendingRound {
    std::vector<std::uint8_t> item_from;  ///< per neighbour index
    std::vector<Message> payloads;
    int items = 0;
  };
  std::vector<PendingRound> pending_;  ///< index = round - base_round_
  std::uint64_t base_round_ = 1;       ///< pending_[0] is this round's bucket

  PendingRound& bucket(std::uint64_t round);
};

/// Convenience: wraps every process of a synchronous protocol and runs it
/// asynchronously. Builds the network from `edges`, installs Synchronizer
/// adapters created by `make_inner(node)`, runs to quiescence and returns
/// the metrics. Access adapters via `net.process()` afterwards.
[[nodiscard]] AsyncMetrics run_synchronized(
    AsyncNetwork& net,
    const std::function<std::unique_ptr<Process>(NodeId)>& make_inner,
    std::uint64_t max_events);

}  // namespace dflp::net
