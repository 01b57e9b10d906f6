#include "netsim/round_buffer.h"

#include <algorithm>
#include <limits>

#include "common/check.h"

namespace dflp::net {

void StageLog::reset() noexcept {
  records.clear();
  ports.clear();
  headers.clear();
  broadcasts = 0;
  halts.clear();
  awake = 0;
  annotations.clear();
  messages = 0;
  bits_sum = 0;
  max_bits = 0;
}

void RoundBuffer::begin(NodeId node, std::uint64_t round,
                        std::span<const NodeId> neighbors,
                        const Limits& limits, StageLog* log,
                        LinkStamps* links, bool clique,
                        std::uint32_t* wake) {
  owner_ = node;
  round_ = round;
  neighbors_ = neighbors;
  limits_ = limits;
  if (log == nullptr) {
    own_log_.reset();
    log = &own_log_;
  }
  log_ = log;
  rec_begin_ = log_->records.size();
  links_ = links != nullptr ? links : &own_links_;
  // Grown once to the largest degree seen, never shrunk; new slots hold
  // stamp 0, which the epoch (bumped before every use) has already passed.
  if (links_->stamp.size() < neighbors.size())
    links_->stamp.resize(neighbors.size(), 0);
  ++links_->epoch;  // every earlier stamp now reads as an unused link
  clique_ = clique;
  broadcast_ = false;
  halt_ = false;
  wake_ = wake;
  if (wake_ != nullptr) *wake_ = 0;  // a step without a hint stays awake
}

WireRecord RoundBuffer::checked_payload(NodeId from, std::uint8_t kind,
                                        std::array<std::int64_t, 3> fields,
                                        int bits, int honest,
                                        std::uint8_t max_kind) const {
  DFLP_CHECK_MSG(from == owner_,
                 "send from node " << from
                                   << " staged into the buffer of node "
                                   << owner_);
  DFLP_CHECK_MSG(kind <= max_kind,
                 "opcode " << static_cast<int>(kind)
                           << " exceeds the allowed maximum "
                           << static_cast<int>(max_kind)
                           << " (reserved for transport control traffic)");
  WireRecord rec;
  rec.src = from;
  rec.kind = kind;
  rec.field = fields;
  rec.bits = bits < 0 ? honest : bits;
  DFLP_CHECK_MSG(rec.bits >= honest,
                 "declared " << rec.bits << " bits < honest size " << honest);
  DFLP_CHECK_MSG(rec.bits <= limits_.bit_budget,
                 "message of " << rec.bits << " bits exceeds CONGEST budget "
                               << limits_.bit_budget << " (kind="
                               << static_cast<int>(kind) << ")");
  return rec;
}

std::int32_t RoundBuffer::charge_link(NodeId to) {
  std::size_t idx = 0;  // position of `to` in the owner's adjacency
  if (clique_) {
    // The rotation lists owner+1, ..., N-1, 0, ..., owner-1.
    const auto n = static_cast<NodeId>(neighbors_.size()) + 1;
    DFLP_CHECK_MSG(to >= 0 && to < n && to != owner_,
                   "node " << owner_ << " is not adjacent to " << to
                           << " (clique of " << n << " nodes)");
    idx = static_cast<std::size_t>(to > owner_ ? to - owner_ - 1
                                               : to + n - owner_ - 1);
  } else {
    const auto it = std::lower_bound(neighbors_.begin(), neighbors_.end(), to);
    DFLP_CHECK_MSG(it != neighbors_.end() && *it == to,
                   "node " << owner_ << " is not adjacent to " << to);
    idx = static_cast<std::size_t>(it - neighbors_.begin());
  }
  std::uint64_t& stamp = links_->stamp[idx];
  DFLP_CHECK_MSG(!broadcast_ && stamp != links_->epoch,
                 "edge allowance exceeded on " << owner_ << "->" << to
                                               << " in round " << round_);
  stamp = links_->epoch;
  return static_cast<std::int32_t>(idx);
}

void RoundBuffer::stage_single(const WireRecord& rec, std::int32_t port) {
  StageLog& log = *log_;
  log.records.push_back(rec);
  log.ports.push_back(port);
  ++log.messages;
  log.bits_sum += static_cast<std::uint64_t>(rec.bits);
  log.max_bits = std::max(log.max_bits, static_cast<int>(rec.bits));
  if (limits_.dst_count != nullptr &&
      limits_.dst_count[static_cast<std::size_t>(rec.dst)]++ == 0)
    limits_.touched->push_back(rec.dst);
}

void RoundBuffer::send(NodeId from, NodeId to, std::uint8_t kind,
                       std::array<std::int64_t, 3> fields, int bits) {
  WireRecord rec = checked_payload(from, kind, fields, bits,
                                   min_payload_bits(fields), limits_.max_kind);
  rec.dst = to;
  stage_single(rec, charge_link(to));
}

void RoundBuffer::broadcast(NodeId from, std::uint8_t kind,
                            std::array<std::int64_t, 3> fields, int bits) {
  if (neighbors_.empty()) return;
  WireRecord rec = checked_payload(from, kind, fields, bits,
                                   min_payload_bits(fields), limits_.max_kind);
  rec.flags = kWireBroadcast;
  // A broadcast uses every link, so any earlier send (or broadcast) this
  // step already holds one of them; later sends see broadcast_ instead.
  DFLP_CHECK_MSG(staged().empty(), "edge allowance exceeded by broadcast from "
                                       << from << " in round " << round_);
  broadcast_ = true;

  // The copies are never materialized: the record below stands for all of
  // them, and the CONGEST bill is batched analytically. Only the
  // destination tally walks the adjacency.
  if (std::int32_t* const count = limits_.dst_count) {
    for (const NodeId nb : neighbors_) {
      if (count[static_cast<std::size_t>(nb)]++ == 0)
        limits_.touched->push_back(nb);
    }
  }
  StageLog& log = *log_;
  log.records.push_back(rec);
  log.ports.push_back(0);
  ++log.broadcasts;
  const auto degree = static_cast<std::uint64_t>(neighbors_.size());
  log.messages += degree;
  log.bits_sum += degree * static_cast<std::uint64_t>(rec.bits);
  log.max_bits = std::max(log.max_bits, static_cast<int>(rec.bits));
}

void RoundBuffer::send_frame(NodeId from, const Message& frame) {
  DFLP_CHECK_MSG(frame.src == from,
                 "frame from node " << frame.src << " sent by node " << from);
  // Frames are exempt from the protocol-opcode cap, and a frame declared
  // below its honest (header-inclusive) size is raised to it.
  const int honest = min_message_bits(frame);
  WireRecord rec =
      checked_payload(from, frame.kind, frame.field,
                      std::max(frame.bits, honest), honest, 0xFF);
  rec.dst = frame.dst;
  rec.flags = kWireHasHeader;
  const std::int32_t port = charge_link(frame.dst);
  // The header column runs parallel to the records up to the last frame:
  // pad it over any unframed records staged since, then add this one's.
  log_->headers.resize(log_->records.size());
  log_->headers.push_back(frame.hdr);
  stage_single(rec, port);
}

void RoundBuffer::halt(NodeId node) {
  DFLP_CHECK_MSG(node == owner_,
                 "halt for node " << node << " staged into the buffer of node "
                                  << owner_);
  if (!halt_) {
    halt_ = true;
    log_->halts.push_back(node);
  }
}

void RoundBuffer::sleep_until(NodeId node, std::uint64_t round) {
  DFLP_CHECK_MSG(node == owner_,
                 "sleep for node " << node << " staged into the buffer of node "
                                   << owner_);
  if (wake_ != nullptr) {
    *wake_ = static_cast<std::uint32_t>(std::min<std::uint64_t>(
        round, std::numeric_limits<std::uint32_t>::max()));
  }
}

void RoundBuffer::annotate(NodeId node, std::string_view phase) {
  if (!limits_.capture_annotations) return;
  DFLP_CHECK_MSG(node == owner_,
                 "annotation from node " << node
                                         << " staged into the buffer of node "
                                         << owner_);
  DFLP_CHECK_MSG(!phase.empty(), "empty phase annotation from node " << node);
  log_->annotations.push_back(phase);
}

}  // namespace dflp::net
