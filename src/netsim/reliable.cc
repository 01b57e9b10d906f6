#include "netsim/reliable.h"

#include <algorithm>
#include <sstream>

#include "common/check.h"

namespace dflp::net {

void ReliableStats::merge(const ReliableStats& other) noexcept {
  // Rounds describe the whole run (max across nodes); traffic counters sum.
  logical_rounds = std::max(logical_rounds, other.logical_rounds);
  physical_rounds = std::max(physical_rounds, other.physical_rounds);
  items_sent += other.items_sent;
  retransmissions += other.retransmissions;
  ack_frames += other.ack_frames;
  duplicates_discarded += other.duplicates_discarded;
}

std::string ReliableStats::to_string() const {
  std::ostringstream os;
  os << "logical=" << logical_rounds << " physical=" << physical_rounds
     << " items=" << items_sent << " retx=" << retransmissions
     << " acks=" << ack_frames << " dups=" << duplicates_discarded;
  return os.str();
}

ReliableChannel::ReliableChannel(std::unique_ptr<Process> inner,
                                 int inner_bit_budget)
    : inner_(std::move(inner)) {
  DFLP_CHECK_MSG(inner_ != nullptr, "reliable channel needs an inner process");
  DFLP_CHECK_MSG(inner_bit_budget >= 8, "inner bit budget "
                                            << inner_bit_budget
                                            << " cannot fit an opcode");
  inner_limits_.bit_budget = inner_bit_budget;
  inner_limits_.max_kind = kMaxProtocolKind;
}

void ReliableChannel::bind(NodeContext& ctx) {
  const auto neighbors = ctx.neighbors();
  links_.resize(neighbors.size());
  for (std::size_t i = 0; i < neighbors.size(); ++i)
    links_[i].peer = neighbors[i];
  bound_ = true;
}

void ReliableChannel::on_round(NodeContext& ctx,
                               std::span<const Message> inbox) {
  if (!bound_) bind(ctx);
  ++stats_.physical_rounds;
  const std::uint64_t now = ctx.round();

  process_inbox(inbox, now);
  for (Link& link : links_) drain_link(link);

  if (!inner_halted_ && ready_for_logical(next_logical_)) {
    execute_logical(ctx, next_logical_);
    ++next_logical_;
  }

  transmit(ctx, now);

  if (done_state()) {
    if (inbox.empty()) ++quiet_rounds_; else quiet_rounds_ = 0;
    if (links_.empty() || quiet_rounds_ > kLinger) ctx.halt();
  } else {
    quiet_rounds_ = 0;
  }
}

void ReliableChannel::process_inbox(std::span<const Message> inbox,
                                    std::uint64_t now) {
  // Per-frame updates are order-independent (max for acks, set-semantics
  // inserts, OR for ack_due), so any physical delivery order — including
  // the shuffled and reversed adversaries — yields the same channel state.
  for (const Message& frame : inbox) {
    DFLP_CHECK_MSG(frame.has_header,
                   "unframed message (kind "
                       << static_cast<int>(frame.kind) << ") from node "
                       << frame.src << " reached a reliable channel");
    const auto port = static_cast<std::size_t>(frame.port);
    DFLP_CHECK_MSG(frame.port >= 0 && port < links_.size() &&
                       links_[port].peer == frame.src,
                   "frame from node " << frame.src << " arrived on port "
                                      << frame.port
                                      << ", which is not its link");
    Link& link = links_[port];

    if (frame.hdr.ack > link.acked) {
      DFLP_CHECK_MSG(frame.hdr.ack <= static_cast<std::int64_t>(
                                          link.out.size()),
                     "peer " << link.peer << " acked " << frame.hdr.ack
                             << " items but only " << link.out.size()
                             << " were staged");
      link.acked = frame.hdr.ack;
      link.retx_count = 0;  // the peer is alive and making progress
      if (link.acked < link.next_tx) {
        // Progress observed: restart the timer for the new oldest unacked.
        link.timer_armed = true;
        link.timer_round = now;
        link.rto = kRtoInitial;
      } else {
        link.timer_armed = false;
      }
    }

    if (frame.hdr.flags & kFrameItem) {
      link.ack_due = true;
      const std::int64_t seq = frame.hdr.seq;
      if (seq < link.cum_recv) {
        ++stats_.duplicates_discarded;
        continue;
      }
      DFLP_CHECK_MSG(seq - link.cum_recv < kWindow,
                     "peer " << link.peer << " sent item " << seq
                             << " beyond the receive window [" << link.cum_recv
                             << ", +" << kWindow << ")");
      if (link.ooo.empty()) {
        link.ooo.resize(kWindow);
        link.ooo_full.assign(kWindow, 0);
      }
      const auto slot = static_cast<std::size_t>(seq % kWindow);
      if (link.ooo_full[slot]) {
        ++stats_.duplicates_discarded;
      } else {
        link.ooo[slot] = frame;
        link.ooo_full[slot] = 1;
      }
    }
  }
}

void ReliableChannel::drain_link(Link& link) {
  while (!link.ooo.empty()) {
    // The next in-order item, if it arrived, sits in cum_recv's slot.
    const auto slot = static_cast<std::size_t>(link.cum_recv % kWindow);
    if (!link.ooo_full[slot]) break;
    link.ooo_full[slot] = 0;
    const Message frame = link.ooo[slot];
    ++link.cum_recv;

    if (frame.kind <= kMaxProtocolKind) {
      // Data item: strip the header and restore the inner wire size so the
      // inner protocol sees exactly the message its peer sent.
      Message msg = frame;
      msg.bits = frame.bits - header_bits(frame.hdr);
      msg.has_header = false;
      msg.hdr = TransportHeader{};
      link.in_log.push_back({msg, frame.hdr.tag});
    }
    if (frame.hdr.flags & kFrameEor)
      link.closed_tag = std::max(link.closed_tag, frame.hdr.tag);
    if (frame.hdr.flags & kFrameFin) link.fin_processed = true;
  }
}

bool ReliableChannel::ready_for_logical(std::uint64_t round) const {
  if (round == 0) return true;  // round 0 delivers an empty inbox
  const auto need = static_cast<std::int64_t>(round) - 1;
  for (const Link& link : links_) {
    // A processed FIN covers every later round: the peer halted and its
    // items were sequenced, so nothing for `need` can still be in flight.
    if (!link.fin_processed && link.closed_tag < need) return false;
  }
  return true;
}

void ReliableChannel::execute_logical(NodeContext& ctx, std::uint64_t round) {
  const auto prev = static_cast<std::int64_t>(round) - 1;
  inner_inbox_.clear();
  for (Link& link : links_) {
    while (link.in_head < link.in_log.size() &&
           link.in_log[link.in_head].tag == prev) {
      inner_inbox_.push_back(link.in_log[link.in_head].msg);
      ++link.in_head;
    }
    if (link.in_head == link.in_log.size()) {
      // Reader caught up: compact to size 0 but keep the capacity, so the
      // log never reallocates in steady state.
      link.in_log.clear();
      link.in_head = 0;
    }
  }

  // The inner protocol runs against its own staging buffer with the inner
  // limits, its own logical round number, and the node's persistent RNG —
  // the exact stream a fault-free direct run would consume.
  buffer_.begin(ctx.self(), round, ctx.neighbors(), inner_limits_);
  NodeContext inner_ctx(buffer_, ctx.self(), round, ctx.neighbors(),
                        ctx.rng());
  inner_->on_round(inner_ctx, inner_inbox_);
  ++stats_.logical_rounds;

  const auto tag = static_cast<std::int64_t>(round);
  buffer_.for_each_staged([&](std::size_t port, NodeId,
                              const WireRecord& rec) {
    // The padding is what the inner declared beyond its honest size.
    links_[port].out.push_back(
        {.field = rec.field,
         .tag = tag,
         .padding = rec.bits - min_payload_bits(rec.field),
         .kind = rec.kind,
         .flags = kFrameItem});
  });

  const bool halting = buffer_.halt_requested();
  const auto close =
      static_cast<std::uint8_t>(kFrameEor | (halting ? kFrameFin : 0));
  for (std::size_t i = 0; i < links_.size(); ++i) {
    Link& link = links_[i];
    if (buffer_.sent_to(i)) {
      // The round's last item doubles as its end-of-round marker (and as
      // the FIN when the inner halted) — no extra frame needed.
      link.out.back().flags |= close;
    } else {
      link.out.push_back({.tag = tag,
                          .kind = halting ? kFin : kToken,
                          .flags = static_cast<std::uint8_t>(kFrameItem |
                                                             close)});
    }
  }
  if (halting) inner_halted_ = true;
}

void ReliableChannel::transmit(NodeContext& ctx, std::uint64_t now) {
  for (Link& link : links_) {
    // Every frame on the link carries the current cumulative ack.
    const auto frame_of = [&](std::uint8_t kind) {
      Message frame;
      frame.src = ctx.self();
      frame.dst = link.peer;
      frame.kind = kind;
      frame.has_header = true;
      frame.hdr.ack = link.cum_recv;
      return frame;
    };
    const auto send_item = [&](std::int64_t seq) {
      const OutItem& item = link.out[static_cast<std::size_t>(seq)];
      Message frame = frame_of(item.kind);
      frame.field = item.field;
      frame.hdr.seq = seq;
      frame.hdr.tag = item.tag;
      frame.hdr.flags = item.flags;
      frame.bits = min_message_bits(frame) + item.padding;
      ctx.send_frame(frame);
    };
    const auto note_retransmit = [&] {
      ++stats_.retransmissions;
      ++link.retx_count;
      DFLP_CHECK_MSG(
          link.retx_count <= kMaxRetransmits,
          "reliable link " << ctx.self() << " -> " << link.peer
                           << " is dead: item seq " << link.acked
                           << " retransmitted " << link.retx_count
                           << " times with no ack by round " << now
                           << "; peer presumed crash-stopped");
    };

    bool sent = false;
    if (link.timer_armed && link.acked < link.next_tx &&
        now - link.timer_round >= static_cast<std::uint64_t>(link.rto)) {
      // Timeout: the oldest unacked item blocks the peer's progress.
      send_item(link.acked);
      link.rto = std::min(link.rto * 2, kRtoMax);
      link.timer_round = now;
      note_retransmit();
      sent = true;
    } else if (link.next_tx < static_cast<std::int64_t>(link.out.size()) &&
               link.next_tx - link.acked < kWindow) {
      send_item(link.next_tx);
      if (!link.timer_armed) {
        link.timer_armed = true;
        link.timer_round = now;
        link.rto = kRtoInitial;
      }
      ++link.next_tx;
      ++stats_.items_sent;
      sent = true;
    } else if (link.timer_armed && link.acked < link.next_tx &&
               now - link.timer_round >=
                   static_cast<std::uint64_t>(kRtoInitial)) {
      // Tail-loss probe: the slot would otherwise idle while the peer's
      // logical round stalls on the oldest unacked item, so re-send it at
      // RTT cadence instead of waiting out the backed-off timer. Never
      // fires on a loss-free link (acks arrive within kRtoInitial), and
      // never competes with new items, so the backoff timer still governs
      // a busy link.
      send_item(link.acked);
      note_retransmit();
      sent = true;
    } else if (link.ack_due) {
      ctx.send_frame(frame_of(kAck));
      ++stats_.ack_frames;
      sent = true;
    }
    if (sent) link.ack_due = false;  // every frame carries the current ack
  }
}

bool ReliableChannel::done_state() const {
  if (!inner_halted_) return false;
  for (const Link& link : links_) {
    if (link.acked < static_cast<std::int64_t>(link.out.size())) return false;
    if (!link.fin_processed) return false;
  }
  return true;
}

int reliable_bit_budget(int inner_budget, std::uint64_t max_logical_rounds) {
  // One item per link per logical round plus a FIN; 16 rounds of slack
  // absorbs the off-by-few cases. seq, ack and tag are each bounded by the
  // item count.
  const int per_word = bits_for_value(
      static_cast<std::int64_t>(max_logical_rounds + 16));
  return inner_budget + 3 * per_word + TransportHeader::kFlagBits;
}

}  // namespace dflp::net
