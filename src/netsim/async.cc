#include "netsim/async.h"

#include <algorithm>
#include <functional>
#include <sstream>

#include "common/check.h"

namespace dflp::net {

std::string AsyncMetrics::to_string() const {
  std::ostringstream os;
  os << "deliveries=" << deliveries << " payload=" << payload_messages
     << " control=" << control_messages << " total_bits=" << total_bits
     << " virtual_time=" << virtual_time;
  return os.str();
}

AsyncNetwork::AsyncNetwork(std::size_t num_nodes, Options options)
    : options_(options), processes_(num_nodes), halted_(num_nodes, 0),
      net_rng_(options.seed ^ 0xA5C011EC7ULL) {
  DFLP_CHECK_MSG(num_nodes > 0, "empty network");
  DFLP_CHECK_MSG(options_.bit_budget >= 8, "budget below opcode size");
  DFLP_CHECK_MSG(options_.max_delay >= 1, "max_delay must be >= 1");
}

void AsyncNetwork::add_edge(NodeId u, NodeId v) {
  DFLP_CHECK_MSG(!finalized_, "add_edge after finalize");
  const auto n = static_cast<NodeId>(processes_.size());
  DFLP_CHECK_MSG(u >= 0 && u < n && v >= 0 && v < n, "edge out of range");
  DFLP_CHECK_MSG(u != v, "self loop at node " << u);
  edge_buffer_.emplace_back(u, v);
}

void AsyncNetwork::finalize() {
  DFLP_CHECK_MSG(!finalized_, "finalize called twice");
  const std::size_t n = processes_.size();
  csr_ = build_sorted_adjacency(n, std::move(edge_buffer_));

  // IMPORTANT: identical RNG stream derivation as the synchronous Network,
  // so wrapped protocols draw the same coins in both worlds.
  node_rngs_.reserve(n);
  Rng seeder(options_.seed);
  for (std::size_t i = 0; i < n; ++i) node_rngs_.push_back(seeder.split(i));
  finalized_ = true;
}

void AsyncNetwork::set_process(NodeId id,
                               std::unique_ptr<AsyncProcess> process) {
  DFLP_CHECK_MSG(finalized_, "set_process before finalize");
  DFLP_CHECK(process != nullptr);
  auto& slot = processes_.at(static_cast<std::size_t>(id));
  DFLP_CHECK_MSG(slot == nullptr, "process already set for node " << id);
  slot = std::move(process);
}

std::span<const NodeId> AsyncNetwork::neighbors_of(NodeId id) const {
  DFLP_CHECK(finalized_);
  const auto i = static_cast<std::size_t>(id);
  DFLP_CHECK(i < processes_.size());
  return {csr_.adj.data() + csr_.offset[i],
          static_cast<std::size_t>(csr_.offset[i + 1] - csr_.offset[i])};
}

AsyncProcess& AsyncNetwork::process(NodeId id) {
  auto& p = processes_.at(static_cast<std::size_t>(id));
  DFLP_CHECK(p != nullptr);
  return *p;
}

const AsyncProcess& AsyncNetwork::process(NodeId id) const {
  const auto& p = processes_.at(static_cast<std::size_t>(id));
  DFLP_CHECK(p != nullptr);
  return *p;
}

bool AsyncNetwork::all_halted() const noexcept {
  return std::all_of(halted_.begin(), halted_.end(),
                     [](std::uint8_t h) { return h != 0; });
}

void AsyncNetwork::sink_halt(NodeId node) {
  halted_[static_cast<std::size_t>(node)] = 1;
}

void AsyncNetwork::sink_send(NodeId from, NodeId to, std::uint8_t kind,
                             std::array<std::int64_t, 3> fields, int bits) {
  DFLP_CHECK_MSG(from == current_sender_,
                 "send outside the sender's own delivery step");
  const auto nbrs = neighbors_of(from);
  const auto it = std::lower_bound(nbrs.begin(), nbrs.end(), to);
  DFLP_CHECK_MSG(it != nbrs.end() && *it == to,
                 "node " << from << " is not adjacent to " << to);

  Event ev;
  ev.msg.src = from;
  ev.msg.dst = to;
  // The receiver hears `from` on the reverse position of this link.
  ev.msg.port = csr_.rev[static_cast<std::size_t>(csr_.offset[from]) +
                         static_cast<std::size_t>(it - nbrs.begin())];
  ev.msg.kind = kind;
  ev.msg.field = fields;
  ev.tag = outgoing_tag_;
  const int tag_bits = ev.tag != 0 ? bits_for_value(ev.tag) : 0;
  const int honest = min_message_bits(ev.msg) + tag_bits;
  ev.msg.bits = bits < 0 ? honest : bits + tag_bits;
  DFLP_CHECK_MSG(ev.msg.bits >= honest, "under-declared message size");
  DFLP_CHECK_MSG(ev.msg.bits <= options_.bit_budget,
                 "message of " << ev.msg.bits
                               << " bits exceeds async budget "
                               << options_.bit_budget);

  ev.time = now_ + 1 +
            net_rng_.uniform_u64(static_cast<std::uint64_t>(options_.max_delay));
  ev.seq = seq_++;
  queue_.push(ev);
}

AsyncMetrics AsyncNetwork::run(std::uint64_t max_events) {
  DFLP_CHECK_MSG(finalized_, "run before finalize");
  for (std::size_t i = 0; i < processes_.size(); ++i)
    DFLP_CHECK_MSG(processes_[i] != nullptr,
                   "node " << i << " has no process");

  metrics_ = AsyncMetrics{};
  // Start hooks, in node order.
  for (std::size_t i = 0; i < processes_.size(); ++i) {
    const auto id = static_cast<NodeId>(i);
    current_sender_ = id;
    NodeContext ctx(*this, id, /*round=*/0, neighbors_of(id), node_rngs_[i]);
    processes_[i]->on_start(ctx);
    current_sender_ = kNoNode;
  }

  while (!queue_.empty() && metrics_.deliveries < max_events) {
    const Event ev = queue_.top();
    queue_.pop();
    now_ = std::max(now_, ev.time);
    ++metrics_.deliveries;
    metrics_.total_bits += static_cast<std::uint64_t>(ev.msg.bits);
    if (ev.msg.kind >= Synchronizer::kToken) {
      ++metrics_.control_messages;
    } else {
      ++metrics_.payload_messages;
    }
    metrics_.virtual_time = now_;

    const auto dst = static_cast<std::size_t>(ev.msg.dst);
    if (halted_[dst]) continue;  // discarded, like the synchronous world
    current_incoming_tag_ = ev.tag;
    current_sender_ = ev.msg.dst;  // the receiver may send during handling
    NodeContext ctx(*this, ev.msg.dst, now_, neighbors_of(ev.msg.dst),
                    node_rngs_[dst]);
    processes_[dst]->on_message(ctx, ev.msg);
    current_sender_ = kNoNode;
  }
  return metrics_;
}

// ------------------------------------------------------------ Synchronizer

Synchronizer::Synchronizer(AsyncNetwork& net, NodeId self,
                           std::unique_ptr<Process> inner)
    : net_(&net), self_(self), inner_(std::move(inner)) {
  DFLP_CHECK(inner_ != nullptr);
  fin_from_.assign(net_->neighbors_of(self_).size(), 0);
  fin_after_.assign(net_->neighbors_of(self_).size(), 0);
}

Synchronizer::PendingRound& Synchronizer::bucket(std::uint64_t round) {
  DFLP_CHECK_MSG(round >= base_round_,
                 "item for already-executed round " << round);
  const std::size_t idx = static_cast<std::size_t>(round - base_round_);
  while (pending_.size() <= idx) {
    PendingRound pr;
    pr.item_from.assign(net_->neighbors_of(self_).size(), 0);
    pending_.push_back(std::move(pr));
  }
  return pending_[idx];
}

bool Synchronizer::ready_for_next() const {
  const auto deg = net_->neighbors_of(self_).size();
  if (deg == 0) return true;  // isolated node: nothing to wait for
  // A FIN'd neighbour satisfies round_ only when round_ lies strictly
  // beyond its last announced item; earlier items are still in flight.
  auto fin_satisfies = [&](std::size_t i) {
    return fin_from_[i] != 0 && round_ > fin_after_[i];
  };
  if (pending_.empty()) {
    for (std::size_t i = 0; i < deg; ++i)
      if (!fin_satisfies(i)) return false;
    return true;
  }
  const PendingRound& pr = pending_.front();
  for (std::size_t i = 0; i < deg; ++i) {
    if (!pr.item_from[i] && !fin_satisfies(i)) return false;
  }
  return true;
}

void Synchronizer::execute_round(NodeContext& ctx) {
  const auto neighbors = net_->neighbors_of(self_);

  // The inner protocol consumes this round's bucket in place — sorted into
  // the synchronous simulator's canonical delivery order and handed over as
  // a span — and the bucket is retired once the step returns; no per-round
  // owning inbox vector exists.
  const bool has_bucket = round_ >= 1 && !pending_.empty();
  std::span<const Message> inbox;
  if (has_bucket) {
    std::vector<Message>& payloads = pending_.front().payloads;
    std::sort(payloads.begin(), payloads.end(),
              [](const Message& a, const Message& b) { return a.src < b.src; });
    inbox = payloads;
  }

  // Step: the inner protocol writes into the same RoundBuffer type the
  // synchronous engine uses — identical legality checks, including the
  // reserved opcodes the synchronizer claims for itself.
  RoundBuffer::Limits limits;
  limits.bit_budget = net_->options().bit_budget;
  limits.max_kind = kToken - 1;
  buffer_.begin(self_, round_, neighbors, limits);
  NodeContext inner_ctx(buffer_, self_, round_, neighbors, ctx.rng());
  inner_->on_round(inner_ctx, inbox);
  if (has_bucket) pending_.erase(pending_.begin());
  if (round_ >= 1) ++base_round_;

  // Commit: forward the staged payloads round-tagged, in send-call order
  // with broadcasts expanded per neighbour (the staged bits already satisfy
  // the honest minimum; the network adds and bills the tag overhead on top).
  net_->set_outgoing_tag(static_cast<std::int64_t>(round_ + 1));
  buffer_.for_each_staged([&](std::size_t, NodeId dst,
                              const WireRecord& rec) {
    net_->sink_send(self_, dst, rec.kind, rec.field,
                    static_cast<int>(rec.bits));
  });
  net_->set_outgoing_tag(0);

  if (buffer_.halt_requested()) {
    inner_halted_ = true;
    if (!fin_sent_) {
      fin_sent_ = true;
      for (std::size_t i = 0; i < neighbors.size(); ++i) {
        // Last item this neighbour will ever get from us: the final
        // round's payload (tag round_+1) if we messaged it, else our
        // previous round's item (tag round_).
        const std::int64_t last_tag =
            buffer_.sent_to(i) ? static_cast<std::int64_t>(round_ + 1)
                               : static_cast<std::int64_t>(round_);
        net_->sink_send(self_, neighbors[i], kFin, {last_tag, 0, 0}, -1);
      }
    }
    net_->sink_halt(self_);
  } else {
    // Round tokens along every silent edge so neighbours can advance.
    net_->set_outgoing_tag(static_cast<std::int64_t>(round_ + 1));
    for (std::size_t i = 0; i < neighbors.size(); ++i) {
      if (!buffer_.sent_to(i))
        net_->sink_send(self_, neighbors[i], kToken, {0, 0, 0}, -1);
    }
    net_->set_outgoing_tag(0);
  }
  ++round_;
}

void Synchronizer::advance_while_ready(NodeContext& ctx) {
  while (!inner_halted_ && ready_for_next()) {
    DFLP_CHECK_MSG(round_ < (1ULL << 20),
                   "synchronizer ran 2^20 rounds without the inner protocol "
                   "halting — runaway protocol");
    execute_round(ctx);
  }
}

void Synchronizer::on_start(NodeContext& ctx) {
  execute_round(ctx);  // synchronous round 0: empty inbox
  advance_while_ready(ctx);
}

void Synchronizer::on_message(NodeContext& ctx, const Message& msg) {
  if (inner_halted_) return;
  // Per-neighbour state is indexed by the port the message arrived on;
  // payloads keep it, so the inner inbox carries the ports a synchronous
  // run would deliver.
  const auto idx = static_cast<std::size_t>(msg.port);
  DFLP_CHECK_MSG(msg.port >= 0 && idx < fin_from_.size() &&
                     net_->neighbors_of(self_)[idx] == msg.src,
                 "message from node " << msg.src << " arrived on port "
                                      << msg.port << ", not its link");

  if (msg.kind == kFin) {
    fin_from_[idx] = 1;
    fin_after_[idx] = static_cast<std::uint64_t>(msg.field[0]);
  } else {
    const std::int64_t tag = net_->current_incoming_tag();
    DFLP_CHECK_MSG(tag >= 1, "payload without a round tag");
    PendingRound& pr = bucket(static_cast<std::uint64_t>(tag));
    DFLP_CHECK_MSG(!pr.item_from[idx],
                   "duplicate round item from neighbour " << msg.src);
    pr.item_from[idx] = 1;
    ++pr.items;
    if (msg.kind != kToken) pr.payloads.push_back(msg);
  }
  advance_while_ready(ctx);
}

AsyncMetrics run_synchronized(
    AsyncNetwork& net,
    const std::function<std::unique_ptr<Process>(NodeId)>& make_inner,
    std::uint64_t max_events) {
  for (NodeId id = 0; id < static_cast<NodeId>(net.num_nodes()); ++id) {
    net.set_process(id,
                    std::make_unique<Synchronizer>(net, id, make_inner(id)));
  }
  return net.run(max_events);
}

}  // namespace dflp::net
