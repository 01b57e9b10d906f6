// Reliable-transport recovery layer over the lossy round engine.
//
// The PODC'05 protocols assume reliable synchronous links. When fault
// injection (netsim/fault.h) drops, duplicates or reorders traffic, a bare
// protocol deadlocks or silently computes garbage. `ReliableChannel` is a
// `Process` adapter that restores the reliable synchronous abstraction on
// top of the lossy engine:
//
//   * every inner send becomes a *sequenced item* on its directed link,
//     tagged with the logical round that produced it;
//   * each physical round the channel transmits at most one frame per link
//     (the CONGEST allowance), carrying an item plus a cumulative ack;
//   * lost frames are retransmitted on timeout with exponential backoff
//     (initial `kRtoInitial` physical rounds — the engine's loss-free RTT
//     is exactly 2, so 2 recovers a single loss immediately — doubling up
//     to `kRtoMax` under repeated loss); when a link's
//     transmit slot would otherwise idle, a tail-loss probe re-sends the
//     oldest unacked item at RTT cadence so a stalled logical round is
//     repaired in O(RTT) instead of waiting out the backed-off timer;
//   * duplicate frames (retransmissions that did arrive, or fault-injected
//     copies) are discarded by sequence number;
//   * an end-of-round flag on the last item of each logical round tells the
//     receiver when a round's inbox is complete, and a FIN flag announces
//     the inner protocol's halt so neighbours stop waiting;
//   * retransmission is bounded: `kMaxRetransmits` unacknowledged re-sends
//     of a link's oldest item in a row mean the peer has crash-stopped
//     (loss alone cannot sustain such a streak), and the channel raises a
//     CheckError naming the dead link instead of spinning to round limit.
//
// The inner protocol executes logical round L only once every live link has
// delivered its complete round-(L-1) traffic, with the inbox rebuilt in the
// engine's canonical order (ascending source, send order within a source).
// Links are indexed by port (Message::port): a frame finds its link without
// a search, and the rebuilt inbox carries the ports a direct run delivers.
// The channel draws *no* randomness of its own, so the inner protocol
// consumes exactly the per-node RNG stream it would consume on a fault-free
// network — which is why a recovered run returns the bit-identical solution
// of the fault-free golden run.
//
// The timing constants (kRtoInitial, kRtoMax, kWindow, kLinger,
// kMaxRetransmits) are fixed, so every channel of a run shares the one
// window that the receive ring's slot arithmetic assumes. The only setting
// is the inner protocol's bit budget.
//
// Accounting: frames carry a TransportHeader (netsim/message.h) whose words
// are charged into the honest wire size, so recovery overhead is paid out
// of the CONGEST bit budget (`reliable_bit_budget` computes the physical
// budget needed to carry a given inner budget). Retransmissions, duplicate
// discards and ack-only frames are counted in `ReliableStats`; round
// dilation is physical rounds / logical rounds.
//
// Termination: after the inner protocol halts, all outgoing items are
// acked, and every neighbour's FIN has been processed, the channel lingers
// `kLinger` quiet physical rounds — re-acking any late retransmission — and
// then halts. The linger window dwarfs the retransmission backoff cap, so
// the classic two-generals residue (a peer whose final ack was lost and
// never re-served) is vanishingly unlikely; even then the inner results are
// already correct and the engine's `max_rounds` bounds the run.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "netsim/message.h"
#include "netsim/network.h"
#include "netsim/round_buffer.h"

namespace dflp::net {

/// Transport counters for one channel (aggregate across nodes with merge()).
struct ReliableStats {
  std::uint64_t logical_rounds = 0;   ///< inner rounds executed
  std::uint64_t physical_rounds = 0;  ///< channel invocations
  std::uint64_t items_sent = 0;       ///< first transmissions
  std::uint64_t retransmissions = 0;  ///< timeout-driven re-sends
  std::uint64_t ack_frames = 0;       ///< pure ack frames (no item slot)
  std::uint64_t duplicates_discarded = 0;

  void merge(const ReliableStats& other) noexcept;
  [[nodiscard]] std::string to_string() const;
};

class ReliableChannel final : public Process {
 public:
  /// Retransmission timeout in physical rounds: the engine's RTT.
  static constexpr int kRtoInitial = 2;
  /// Backoff cap for the timeout under repeated loss.
  static constexpr int kRtoMax = 16;
  /// Max unacked items in flight per link, and the receive ring's size.
  static constexpr int kWindow = 8;
  /// Quiet rounds to keep re-serving acks after the done-state holds.
  static constexpr int kLinger = 64;
  /// Consecutive retransmissions of a link's oldest unacked item (timer
  /// and tail-loss probes alike, reset whenever the peer's cumulative ack
  /// advances) before the channel declares the peer dead and raises a
  /// CheckError naming the link. A crash-stopped peer never acks, so
  /// without the bound the channel would spin to the engine round limit
  /// with no diagnosis. 64 survives any plausible loss streak (even at 30%
  /// i.i.d. loss both ways, 64 unacknowledged retries is a ~1e-19 event)
  /// while firing well before the round limit.
  static constexpr int kMaxRetransmits = 64;

  /// Largest opcode the inner protocol may use under the channel.
  static constexpr std::uint8_t kMaxProtocolKind = 0xFA;
  /// Control opcodes (sequenced where noted).
  static constexpr std::uint8_t kAck = 0xFD;    ///< unsequenced ack-only frame
  static constexpr std::uint8_t kToken = 0xFE;  ///< sequenced end-of-round
  static constexpr std::uint8_t kFin = 0xFF;    ///< sequenced halt announce

  /// The inner protocol stages through its own RoundBuffer, so it keeps
  /// the CONGEST rules per logical round: `inner_bit_budget` (at least 8;
  /// the physical network budget must be at least reliable_bit_budget() of
  /// it), and one message per link.
  ReliableChannel(std::unique_ptr<Process> inner, int inner_bit_budget);

  void on_round(NodeContext& ctx, std::span<const Message> inbox) override;

  [[nodiscard]] const Process& inner() const noexcept { return *inner_; }
  [[nodiscard]] bool inner_halted() const noexcept { return inner_halted_; }
  [[nodiscard]] const ReliableStats& stats() const noexcept { return stats_; }

 private:
  /// One sequenced item staged for a link: what the item adds to a frame.
  /// Its seq is its index in Link::out; transmit() fills in the link's
  /// endpoints, the current ack and the wire size.
  struct OutItem {
    std::array<std::int64_t, 3> field{0, 0, 0};
    std::int64_t tag = 0;      ///< logical round that produced it
    std::int32_t padding = 0;  ///< bits the inner declared beyond honest
    std::uint8_t kind = 0;
    std::uint8_t flags = 0;  ///< TransportFlag bits
  };

  /// A drained in-order data item awaiting inner consumption.
  struct PendingItem {
    Message msg;          ///< header stripped, inner wire size restored
    std::int64_t tag = 0; ///< logical round the sender produced it in
  };

  struct Link {
    NodeId peer = kNoNode;

    // Send side.
    std::vector<OutItem> out;
    std::int64_t next_tx = 0;  ///< first never-transmitted item
    std::int64_t acked = 0;    ///< items [0, acked) acked by the peer
    bool timer_armed = false;
    std::uint64_t timer_round = 0;
    int rto = 0;
    int retx_count = 0;  ///< unacknowledged retransmissions in a row

    // Receive side. Both buffers recycle their heap storage across rounds:
    // `ooo` is a ring of kWindow slots, allocated on the link's first
    // item, that holds item seq in slot seq % kWindow until it is drained
    // in order — a sender never transmits beyond its acked + kWindow, and
    // its acked trails cum_recv, so every new item lands in [cum_recv,
    // cum_recv + kWindow) and finds its slot without a search. `in_log` is
    // a vector drained by `in_head`, compacted (size 0, capacity kept)
    // whenever the reader catches up.
    std::int64_t cum_recv = 0;  ///< items [0, cum_recv) processed in order
    std::vector<Message> ooo;             ///< ring of received items
    std::vector<std::uint8_t> ooo_full;   ///< which ring slots hold one
    std::vector<PendingItem> in_log;  ///< drained data items, in order
    std::size_t in_head = 0;          ///< first unconsumed in_log entry
    std::int64_t closed_tag = -1;    ///< highest fully-received logical round
    bool fin_processed = false;
    bool ack_due = false;
  };

  void bind(NodeContext& ctx);
  void process_inbox(std::span<const Message> inbox, std::uint64_t now);
  void drain_link(Link& link);
  [[nodiscard]] bool ready_for_logical(std::uint64_t round) const;
  void execute_logical(NodeContext& ctx, std::uint64_t round);
  void transmit(NodeContext& ctx, std::uint64_t now);
  [[nodiscard]] bool done_state() const;

  std::unique_ptr<Process> inner_;
  RoundBuffer::Limits inner_limits_;
  bool bound_ = false;
  bool inner_halted_ = false;
  std::uint64_t next_logical_ = 0;
  int quiet_rounds_ = 0;
  /// One per neighbour, indexed by port: links_[p] is the link to
  /// ctx.neighbors()[p], so a delivered frame finds its link as
  /// links_[frame.port] and a staged inner send as the sender-side port
  /// RoundBuffer::for_each_staged reports — no search on either path.
  /// Data items keep the frame's port, so the inner protocol's inbox
  /// carries the same ports a direct run would deliver.
  std::vector<Link> links_;
  std::vector<Message> inner_inbox_;     ///< scratch for execute_logical
  RoundBuffer buffer_;                   ///< inner step staging
  ReliableStats stats_;
};

/// Physical per-message bit budget needed so the channel can carry
/// `inner_budget`-bit payloads when at most `max_logical_rounds` logical
/// rounds execute: the inner budget plus the worst-case header (seq, ack,
/// tag each bounded by the item count, plus flag bits).
[[nodiscard]] int reliable_bit_budget(int inner_budget,
                                      std::uint64_t max_logical_rounds);

}  // namespace dflp::net
