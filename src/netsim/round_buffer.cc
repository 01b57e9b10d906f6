#include "netsim/round_buffer.h"

#include <algorithm>

#include "common/check.h"

namespace dflp::net {

void StageLog::reset() noexcept {
  records.clear();
  headers.clear();
  halts.clear();
  annotations.clear();
  // The engine's fault-free commit drains the histogram as it merges; this
  // loop only pays for entries a consumer left behind (standalone resets).
  for (const NodeId d : touched) dst_count[static_cast<std::size_t>(d)] = 0;
  touched.clear();
  messages = 0;
  bits_sum = 0;
  max_bits = 0;
  range_begin = 0;
}

void RoundBuffer::begin(NodeId node, std::uint64_t round,
                        std::span<const NodeId> neighbors,
                        const Limits& limits, StageLog* log,
                        std::span<std::int8_t> edge_scratch,
                        CliqueScratch* clique) {
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
  clique_ = clique;
  clique_broadcasts_ = 0;
  clique_max_unicast_ = 0;
  if (clique != nullptr) {
    // Epoch bump invalidates every stale allowance count in O(1); the
    // neighbour-indexed slab path below would zero-fill N-1 slots per node.
    DFLP_CHECK_MSG(edge_scratch.empty(),
                   "clique mode supplies no per-edge scratch slab");
    ++clique->epoch;
    edge_sends_ = {};
  } else if (edge_scratch.empty() && !neighbors.empty()) {
    edge_store_.assign(neighbors.size(), 0);
    edge_sends_ = edge_store_;
  } else {
    std::fill(edge_scratch.begin(), edge_scratch.end(), 0);
    edge_sends_ = edge_scratch;
  }
  halt_ = false;
}

void RoundBuffer::clique_charge_unicast(NodeId from, NodeId to) {
  CliqueScratch& cs = *clique_;
  const auto d = static_cast<std::size_t>(to);
  if (cs.stamp[d] != cs.epoch) {
    cs.stamp[d] = cs.epoch;
    cs.counts[d] = 0;
  }
  DFLP_CHECK_MSG(
      cs.counts[d] + clique_broadcasts_ < limits_.max_msgs_per_edge_per_round,
      "edge allowance exceeded on " << from << "->" << to << " in round "
                                    << round_);
  clique_max_unicast_ = std::max(clique_max_unicast_, ++cs.counts[d]);
}

void RoundBuffer::stage_single(const WireRecord& rec) {
  StageLog& log = *log_;
  log.records.push_back(rec);
  ++log.messages;
  log.bits_sum += static_cast<std::uint64_t>(rec.bits);
  log.max_bits = std::max(log.max_bits, static_cast<int>(rec.bits));
  if (limits_.tally_destinations) {
    const auto dst = static_cast<std::size_t>(rec.dst);
    if (log.dst_count[dst]++ == 0) log.touched.push_back(rec.dst);
  }
}

void RoundBuffer::sink_send(NodeId from, NodeId to, std::uint8_t kind,
                            std::array<std::int64_t, 3> fields, int bits) {
  DFLP_CHECK_MSG(from == owner_,
                 "send from node " << from
                                   << " staged into the buffer of node "
                                   << owner_);
  DFLP_CHECK_MSG(kind <= limits_.max_kind,
                 "opcode " << static_cast<int>(kind)
                           << " exceeds the allowed maximum "
                           << static_cast<int>(limits_.max_kind)
                           << " (reserved for transport control traffic)");
  if (clique_ == nullptr) {
    const auto it = std::lower_bound(neighbors_.begin(), neighbors_.end(), to);
    DFLP_CHECK_MSG(it != neighbors_.end() && *it == to,
                   "node " << from << " is not adjacent to " << to);

    WireRecord rec;
    rec.src = from;
    rec.dst = to;
    rec.kind = kind;
    rec.field = fields;
    const int honest = min_payload_bits(fields);
    rec.bits = bits < 0 ? honest : bits;
    DFLP_CHECK_MSG(rec.bits >= honest,
                   "declared " << rec.bits << " bits < honest size " << honest);
    DFLP_CHECK_MSG(rec.bits <= limits_.bit_budget,
                   "message of " << rec.bits << " bits exceeds CONGEST budget "
                                 << limits_.bit_budget << " (kind="
                                 << static_cast<int>(kind) << ")");

    const auto idx = static_cast<std::size_t>(it - neighbors_.begin());
    DFLP_CHECK_MSG(edge_sends_[idx] < limits_.max_msgs_per_edge_per_round,
                   "edge allowance exceeded on " << from << "->" << to
                                                 << " in round " << round_);
    ++edge_sends_[idx];
    stage_single(rec);
    return;
  }

  // Clique: adjacency is "any other node"; the allowance is charged against
  // the epoch-stamped destination column instead of a neighbour index.
  const auto num_nodes = static_cast<NodeId>(clique_->counts.size());
  DFLP_CHECK_MSG(to >= 0 && to < num_nodes && to != from,
                 "node " << from << " is not adjacent to " << to
                         << " (clique of " << num_nodes << " nodes)");
  WireRecord rec;
  rec.src = from;
  rec.dst = to;
  rec.kind = kind;
  rec.field = fields;
  const int honest = min_payload_bits(fields);
  rec.bits = bits < 0 ? honest : bits;
  DFLP_CHECK_MSG(rec.bits >= honest,
                 "declared " << rec.bits << " bits < honest size " << honest);
  DFLP_CHECK_MSG(rec.bits <= limits_.bit_budget,
                 "message of " << rec.bits << " bits exceeds CONGEST budget "
                               << limits_.bit_budget << " (kind="
                               << static_cast<int>(kind) << ")");
  clique_charge_unicast(from, to);
  stage_single(rec);
}

void RoundBuffer::sink_broadcast(NodeId from, std::span<const NodeId>,
                                 std::uint8_t kind,
                                 std::array<std::int64_t, 3> fields,
                                 int bits) {
  if (neighbors_.empty()) return;
  DFLP_CHECK_MSG(from == owner_,
                 "send from node " << from
                                   << " staged into the buffer of node "
                                   << owner_);
  DFLP_CHECK_MSG(kind <= limits_.max_kind,
                 "opcode " << static_cast<int>(kind)
                           << " exceeds the allowed maximum "
                           << static_cast<int>(limits_.max_kind)
                           << " (reserved for transport control traffic)");
  WireRecord rec;
  rec.src = from;
  rec.kind = kind;
  rec.field = fields;
  rec.flags = kWireBroadcast;
  const int honest = min_payload_bits(fields);
  rec.bits = bits < 0 ? honest : bits;
  DFLP_CHECK_MSG(rec.bits >= honest,
                 "declared " << rec.bits << " bits < honest size " << honest);
  DFLP_CHECK_MSG(rec.bits <= limits_.bit_budget,
                 "message of " << rec.bits << " bits exceeds CONGEST budget "
                               << limits_.bit_budget << " (kind="
                               << static_cast<int>(kind) << ")");

  StageLog& log = *log_;
  const bool tally = limits_.tally_destinations;
  if (clique_ != nullptr) {
    // Every link carries this broadcast, so the per-link composite count
    // (unicasts to that destination + broadcasts) rises by one everywhere
    // at once: one comparison against the unicast high-water mark settles
    // all N-1 allowance checks.
    DFLP_CHECK_MSG(
        clique_max_unicast_ + clique_broadcasts_ <
            limits_.max_msgs_per_edge_per_round,
        "edge allowance exceeded by broadcast from " << from << " in round "
                                                     << round_);
    ++clique_broadcasts_;
    if (tally) {
      for (std::size_t dst = 0; dst < clique_->counts.size(); ++dst) {
        if (dst == static_cast<std::size_t>(from)) continue;
        if (log.dst_count[dst]++ == 0)
          log.touched.push_back(static_cast<NodeId>(dst));
      }
    }
  } else {
    // One fused pass over the adjacency settles the per-edge allowance and
    // the stage-time destination histogram; the copies themselves are never
    // materialized — the record below stands for all of them and the CONGEST
    // bill is batched analytically.
    for (std::size_t idx = 0; idx < neighbors_.size(); ++idx) {
      DFLP_CHECK_MSG(edge_sends_[idx] < limits_.max_msgs_per_edge_per_round,
                     "edge allowance exceeded on " << from << "->"
                                                   << neighbors_[idx]
                                                   << " in round " << round_);
      ++edge_sends_[idx];
      if (tally) {
        const auto dst = static_cast<std::size_t>(neighbors_[idx]);
        if (log.dst_count[dst]++ == 0) log.touched.push_back(neighbors_[idx]);
      }
    }
  }
  log.records.push_back(rec);
  const auto degree = static_cast<std::uint64_t>(neighbors_.size());
  log.messages += degree;
  log.bits_sum += degree * static_cast<std::uint64_t>(rec.bits);
  log.max_bits = std::max(log.max_bits, static_cast<int>(rec.bits));
}

void RoundBuffer::sink_frame(NodeId from, const Message& frame) {
  DFLP_CHECK_MSG(from == owner_ && frame.src == owner_,
                 "frame from node " << frame.src
                                    << " staged into the buffer of node "
                                    << owner_);
  const NodeId to = frame.dst;
  if (clique_ != nullptr) {
    const auto num_nodes = static_cast<NodeId>(clique_->counts.size());
    DFLP_CHECK_MSG(to >= 0 && to < num_nodes && to != from,
                   "node " << from << " is not adjacent to " << to
                           << " (clique of " << num_nodes << " nodes)");
  } else {
    const auto it = std::lower_bound(neighbors_.begin(), neighbors_.end(), to);
    DFLP_CHECK_MSG(it != neighbors_.end() && *it == to,
                   "node " << from << " is not adjacent to " << to);
  }

  Message msg = frame;
  const int honest = min_message_bits(msg);
  if (msg.bits < honest) msg.bits = honest;
  DFLP_CHECK_MSG(msg.bits <= limits_.bit_budget,
                 "frame of " << msg.bits << " bits exceeds CONGEST budget "
                             << limits_.bit_budget << " (kind="
                             << static_cast<int>(msg.kind) << ")");

  if (clique_ != nullptr) {
    clique_charge_unicast(from, to);
  } else {
    const auto it = std::lower_bound(neighbors_.begin(), neighbors_.end(), to);
    const auto idx = static_cast<std::size_t>(it - neighbors_.begin());
    DFLP_CHECK_MSG(edge_sends_[idx] < limits_.max_msgs_per_edge_per_round,
                   "edge allowance exceeded on " << from << "->" << to
                                                 << " in round " << round_);
    ++edge_sends_[idx];
  }

  WireRecord rec;
  rec.src = msg.src;
  rec.dst = msg.dst;
  rec.kind = msg.kind;
  rec.field = msg.field;
  rec.bits = msg.bits;
  rec.flags = kWireHasHeader;
  log_->headers.push_back(
      {static_cast<std::uint32_t>(log_->records.size()), msg.hdr});
  stage_single(rec);
}

void RoundBuffer::sink_halt(NodeId node) {
  DFLP_CHECK_MSG(node == owner_,
                 "halt for node " << node << " staged into the buffer of node "
                                  << owner_);
  if (!halt_) {
    halt_ = true;
    log_->halts.push_back(node);
  }
}

void RoundBuffer::sink_annotate(NodeId node, std::string_view phase) {
  if (!limits_.capture_annotations) return;
  DFLP_CHECK_MSG(node == owner_,
                 "annotation from node " << node
                                         << " staged into the buffer of node "
                                         << owner_);
  DFLP_CHECK_MSG(!phase.empty(), "empty phase annotation from node " << node);
  log_->annotations.push_back(phase);
}

void RoundBuffer::clear() noexcept {
  if (log_ == &own_log_) {
    own_log_.reset();
    rec_begin_ = 0;
  } else if (log_ != nullptr) {
    log_->records.resize(rec_begin_);
  }
  std::fill(edge_sends_.begin(), edge_sends_.end(), 0);
  if (clique_ != nullptr) ++clique_->epoch;  // forget the allowance counts
  clique_broadcasts_ = 0;
  clique_max_unicast_ = 0;
  halt_ = false;
}

}  // namespace dflp::net
