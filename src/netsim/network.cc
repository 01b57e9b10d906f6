#include "netsim/network.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <map>

#include "common/check.h"
#include "common/mathx.h"
#include "netsim/round_buffer.h"
#include "netsim/trace.h"

namespace dflp::net {

namespace {

// Salt separating the delivery-shuffle stream family (see the header's
// determinism contract). Arbitrary odd constant; changing it changes every
// seeded execution, so it is frozen. The fault stream salts live with the
// FaultPlan (netsim/fault.cc).
constexpr std::uint64_t kShuffleSalt = 0x5AFEC0DE5AFEC0DFULL;

// Prefetch look-ahead distances for the commit/gather streaming loops. The
// gather chases one pointer per arena slot and the broadcast scatter one
// cursor per neighbour — both walk long regular sequences whose next
// addresses are known well in advance, which is exactly the pattern
// hardware prefetchers miss (the addresses are data-dependent). Values
// tuned on the storm benchmark; they only hide latency, never change
// results.
constexpr std::size_t kGatherPrefetch = 32;
constexpr std::size_t kScatterPrefetch = 16;

}  // namespace

Adjacency build_sorted_adjacency(
    std::size_t num_nodes, std::vector<std::pair<NodeId, NodeId>> edges) {
  Adjacency out;
  std::vector<std::int32_t>& offset = out.offset;
  std::vector<NodeId>& adj = out.adj;
  offset.assign(num_nodes + 1, 0);
  for (const auto& [u, v] : edges) {
    ++offset[static_cast<std::size_t>(u) + 1];
    ++offset[static_cast<std::size_t>(v) + 1];
  }
  for (std::size_t i = 0; i < num_nodes; ++i) offset[i + 1] += offset[i];

  // Bucket: every edge lands in both endpoints' lists, in input order.
  std::vector<std::size_t> cursor(offset.begin(), offset.end() - 1);
  std::vector<NodeId> bucket(static_cast<std::size_t>(offset[num_nodes]));
  for (const auto& [u, v] : edges) {
    bucket[cursor[static_cast<std::size_t>(u)]++] = v;
    bucket[cursor[static_cast<std::size_t>(v)]++] = u;
  }
  edges = {};  // released before adj is allocated, so peak memory stays put

  // Transpose: walking the sources in ascending order appends s to each of
  // its neighbours' lists, so every list fills sorted. The graph is
  // symmetric, so its transpose is the adjacency itself. A duplicate edge
  // shows up as s appended twice in a row to the same list.
  std::copy(offset.begin(), offset.end() - 1, cursor.begin());
  adj.resize(bucket.size());
  for (std::size_t s = 0; s < num_nodes; ++s) {
    const auto src = static_cast<NodeId>(s);
    const auto end = static_cast<std::size_t>(offset[s + 1]);
    for (auto k = static_cast<std::size_t>(offset[s]); k < end; ++k) {
      const auto v = static_cast<std::size_t>(bucket[k]);
      const std::size_t pos = cursor[v]++;
      DFLP_CHECK_MSG(pos == static_cast<std::size_t>(offset[v]) ||
                         adj[pos - 1] != src,
                     "duplicate edge (" << src << "," << bucket[k] << ")");
      adj[pos] = src;
    }
  }

  // Reverse positions: walking the sources in ascending order again, every
  // neighbour v's cursor sits on s, because v's list is ascending and its
  // smaller neighbours were all walked before s.
  std::copy(offset.begin(), offset.end() - 1, cursor.begin());
  out.rev.resize(adj.size());
  for (std::size_t s = 0; s < num_nodes; ++s) {
    const auto end = static_cast<std::size_t>(offset[s + 1]);
    for (auto e = static_cast<std::size_t>(offset[s]); e < end; ++e) {
      const auto v = static_cast<std::size_t>(adj[e]);
      out.rev[e] = static_cast<std::int32_t>(cursor[v]++ -
                                             static_cast<std::size_t>(offset[v]));
    }
  }
  return out;
}

int congest_bit_budget(std::size_t num_nodes) noexcept {
  return 4 * ceil_log2(static_cast<std::uint64_t>(num_nodes) + 2) + 16;
}

void NodeContext::send(NodeId to, std::uint8_t kind,
                       std::array<std::int64_t, 3> fields, int bits) {
  buffer_->send(self_, to, kind, fields, bits);
}

void NodeContext::broadcast(std::uint8_t kind,
                            std::array<std::int64_t, 3> fields, int bits) {
  buffer_->broadcast(self_, kind, fields, bits);
}

void NodeContext::send_frame(const Message& frame) {
  buffer_->send_frame(self_, frame);
}

void NodeContext::halt() noexcept { buffer_->halt(self_); }

void NodeContext::sleep_until(std::uint64_t round) {
  buffer_->sleep_until(self_, round);
}

void NodeContext::annotate(std::string_view phase) {
  buffer_->annotate(self_, phase);
}

Network::Network(std::size_t num_nodes, Options options)
    : options_(options),
      processes_(num_nodes),
      halted_(num_nodes, 0) {
  DFLP_CHECK_MSG(num_nodes > 0, "empty network");
  live_nodes_.reserve(num_nodes);
  for (std::size_t i = 0; i < num_nodes; ++i)
    live_nodes_.push_back(static_cast<NodeId>(i));
}

Network::Network(Network&&) noexcept = default;
Network& Network::operator=(Network&&) noexcept = default;
Network::~Network() = default;

void Network::add_edge(NodeId u, NodeId v) {
  DFLP_CHECK_MSG(!finalized_, "add_edge after finalize");
  DFLP_CHECK_MSG(options_.topology != Topology::kClique,
                 "add_edge (" << u << "," << v
                              << ") under Topology::kClique — the clique's "
                                 "edges are implicit");
  const auto n = static_cast<NodeId>(processes_.size());
  DFLP_CHECK_MSG(u >= 0 && u < n && v >= 0 && v < n,
                 "edge (" << u << "," << v << ") out of range, n=" << n);
  DFLP_CHECK_MSG(u != v, "self loop at node " << u);
  edge_buffer_.emplace_back(u, v);
}

void Network::finalize() {
  DFLP_CHECK_MSG(!finalized_, "finalize called twice");
  const std::size_t n = processes_.size();
  clique_ = options_.topology == Topology::kClique;
  if (clique_) {
    // Implicit all-to-all adjacency: the rotation array clique_adj_[k] =
    // k mod n gives every node its N-1 neighbour span in O(n) total
    // storage; no CSR.
    DFLP_CHECK_MSG(n >= 2, "Topology::kClique needs >= 2 nodes; got " << n);
    clique_adj_.resize(2 * n - 1);
    for (std::size_t k = 0; k < clique_adj_.size(); ++k)
      clique_adj_[k] = static_cast<NodeId>(k < n ? k : k - n);
    num_edges_ = n * (n - 1) / 2;
  } else {
    num_edges_ = edge_buffer_.size();
    csr_ = build_sorted_adjacency(n, std::move(edge_buffer_));
  }
  bind_options();
  finalized_ = true;
}

void Network::finalize(Adjacency adjacency) {
  DFLP_CHECK_MSG(!finalized_, "finalize called twice");
  DFLP_CHECK_MSG(options_.topology == Topology::kExplicit,
                 "a prebuilt adjacency needs Topology::kExplicit");
  DFLP_CHECK_MSG(edge_buffer_.empty(),
                 "finalize(Adjacency) after add_edge: pass one topology");
  const std::size_t n = processes_.size();
  const Adjacency& a = adjacency;
  DFLP_CHECK_MSG(a.offset.size() == n + 1 && a.offset[0] == 0 &&
                     static_cast<std::size_t>(a.offset[n]) == a.adj.size() &&
                     a.rev.size() == a.adj.size() && a.adj.size() % 2 == 0,
                 "prebuilt adjacency does not describe " << n << " nodes");
  for (std::size_t u = 0; u < n; ++u) {
    DFLP_CHECK_MSG(a.offset[u] <= a.offset[u + 1],
                   "prebuilt adjacency: offsets of node " << u << " decrease");
  }
  for (std::size_t u = 0; u < n; ++u) {
    const auto begin = static_cast<std::size_t>(a.offset[u]);
    const auto end = static_cast<std::size_t>(a.offset[u + 1]);
    for (std::size_t e = begin; e < end; ++e) {
      const NodeId v = a.adj[e];
      DFLP_CHECK_MSG(v >= 0 && static_cast<std::size_t>(v) < n &&
                         static_cast<std::size_t>(v) != u &&
                         (e == begin || a.adj[e - 1] < v),
                     "prebuilt adjacency: neighbours of node "
                         << u << " are not sorted, distinct and in range");
      const auto vb = static_cast<std::size_t>(a.offset[v]);
      const auto vdeg = static_cast<std::size_t>(a.offset[v + 1]) - vb;
      const auto r = static_cast<std::size_t>(a.rev[e]);
      DFLP_CHECK_MSG(a.rev[e] >= 0 && r < vdeg &&
                         a.adj[vb + r] == static_cast<NodeId>(u),
                     "prebuilt adjacency: reverse position of node "
                         << u << " in node " << v << "'s list is wrong");
    }
  }
  clique_ = false;
  num_edges_ = a.adj.size() / 2;
  csr_ = std::move(adjacency);
  bind_options();
  finalized_ = true;
}

void Network::restart(Options options) {
  DFLP_CHECK_MSG(finalized_, "restart before finalize");
  DFLP_CHECK_MSG(options.topology == options_.topology,
                 "restart cannot change the topology kind");
  const std::size_t n = processes_.size();
  options_ = options;
  for (auto& p : processes_) p.reset();
  std::fill(halted_.begin(), halted_.end(), std::uint8_t{0});
  live_nodes_.clear();
  for (std::size_t i = 0; i < n; ++i)
    live_nodes_.push_back(static_cast<NodeId>(i));
  // Discard whatever a cut-short execution left in flight.
  for (const NodeId d : touched_) slice_count_[static_cast<std::size_t>(d)] = 0;
  touched_.clear();
  for (const NodeId d : next_touched_)  // left by a round that threw
    dst_count_[static_cast<std::size_t>(d)] = 0;
  next_touched_.clear();
  arena_.clear();
  arena_port_.clear();
  inflight_messages_ = 0;
  transport_touches_ = 0;
  pulled_rounds_ = 0;
  crash_cursor_ = 0;
  skip_until_ = 0;
  round_ = 0;
  cumulative_ = NetMetrics{};
  bind_options();
}

void Network::bind_options() {
  const std::size_t n = processes_.size();

  // Validate the options here, with the offending value in the message,
  // rather than misbehaving silently at run time. The fault plan validates
  // its own probabilities and crash-event ranges.
  DFLP_CHECK_MSG(options_.bit_budget >= 8,
                 "Options::bit_budget must be >= 8 (the opcode alone needs "
                 "8 bits); got " << options_.bit_budget);
  fault_plan_ = FaultPlan(options_.faults, options_.seed, n);

  node_rngs_.clear();
  node_rngs_.reserve(n);
  Rng seeder(options_.seed);
  for (std::size_t i = 0; i < n; ++i) node_rngs_.push_back(seeder.split(i));

  wake_.assign(n, 0);
  slice_begin_.resize(n, 0);
  slice_count_.resize(n, 0);
  dst_count_.resize(n, 0);
  dst_cursor_.resize(n, 0);
  pull_rec_.assign(n, nullptr);
  pulled_ = false;
}

void Network::set_process(NodeId id, std::unique_ptr<Process> process) {
  DFLP_CHECK_MSG(finalized_, "set_process before finalize");
  DFLP_CHECK(process != nullptr);
  auto& slot = processes_.at(static_cast<std::size_t>(id));
  DFLP_CHECK_MSG(slot == nullptr, "process already set for node " << id);
  slot = std::move(process);
}

std::span<const NodeId> Network::neighbors_of(NodeId id) const {
  DFLP_CHECK(finalized_);
  const auto i = static_cast<std::size_t>(id);
  DFLP_CHECK(i < processes_.size());
  return neighbors_unchecked(i);
}

bool Network::halted(NodeId id) const {
  return halted_.at(static_cast<std::size_t>(id)) != 0;
}

Process& Network::process(NodeId id) {
  auto& p = processes_.at(static_cast<std::size_t>(id));
  DFLP_CHECK_MSG(p != nullptr, "no process at node " << id);
  return *p;
}

const Process& Network::process(NodeId id) const {
  const auto& p = processes_.at(static_cast<std::size_t>(id));
  DFLP_CHECK_MSG(p != nullptr, "no process at node " << id);
  return *p;
}

std::span<Message> Network::gather_inbox(std::size_t i,
                                         const StageLog& inbound) {
  const auto count = static_cast<std::size_t>(slice_count_[i]);
  if (count == 0) return {};
  // Grown, never shrunk: stale elements past `count` are dead capacity and
  // the per-round reuse is what keeps steady-state gathers allocation-free.
  std::vector<Message>& scratch = inbox_scratch_;
  if (scratch.size() < count) scratch.resize(count);
  const NodeId self = static_cast<NodeId>(i);
  const auto fill = [self](Message& m, const WireRecord& rec,
                           std::int32_t port) {
    m.src = rec.src;
    m.dst = self;  // resolved: broadcast records carry no destination
    m.port = port;
    m.kind = rec.kind;
    m.field = rec.field;
    m.bits = static_cast<int>(rec.bits);
  };
  if (pulled_) {
    // A pull round: the slice holds exactly the neighbours that broadcast,
    // so the ascending walk stops once it has found `count` of them.
    const std::span<const NodeId> nbrs = neighbors_unchecked(i);
    std::size_t j = 0;
    for (std::size_t k = 0; j < count && k < nbrs.size(); ++k) {
      const WireRecord* rec = pull_rec_[static_cast<std::size_t>(nbrs[k])];
      if (rec == nullptr) continue;
      Message& m = scratch[j++];
      fill(m, *rec, static_cast<std::int32_t>(k));
      m.has_header = false;  // broadcasts are never frames
    }
    return {scratch.data(), count};
  }
  const std::size_t begin = slice_begin_[i];
  const WireRecord* const* perm = arena_.data();
  const std::size_t perm_size = arena_.size();
  for (std::size_t j = 0; j < count; ++j) {
    const std::size_t slot = begin + j;
    if (slot + kGatherPrefetch < perm_size)
      __builtin_prefetch(perm[slot + kGatherPrefetch]);
    const WireRecord& rec = *perm[slot];
    Message& m = scratch[j];
    fill(m, rec, arena_port_[slot]);
    if (rec.flags & kWireHasHeader) {
      // A frame: its header sits in the inbound log's column at the
      // record's own index.
      m.has_header = true;
      m.hdr = inbound.headers[static_cast<std::size_t>(
          &rec - inbound.records.data())];
    } else {
      // hdr is left untouched: its bytes are only meaningful under
      // has_header (message.h), and skipping the 32-byte zeroing cuts the
      // per-delivery write traffic by ~40%.
      m.has_header = false;
    }
  }
  return {scratch.data(), count};
}

void Network::order_inbox(std::span<Message> inbox, NodeId node) const {
  if (inbox.size() <= 1) return;
  switch (options_.delivery) {
    case DeliveryOrder::kBySource:
      // The commit scatter fills every slice in ascending-source order
      // (ties in send-call order) — already canonical, nothing to do.
      break;
    case DeliveryOrder::kReverseSource:
      std::sort(inbox.begin(), inbox.end(),
                [](const Message& a, const Message& b) {
                  return a.src > b.src;
                });
      break;
    case DeliveryOrder::kRandomShuffle: {
      Rng shuffle_rng(derive_stream_seed(
          options_.seed ^ kShuffleSalt,
          static_cast<std::uint64_t>(node), round_));
      shuffle_rng.shuffle(inbox.begin(), inbox.end());
      break;
    }
  }
}

NetMetrics Network::run(std::uint64_t max_rounds) {
  DFLP_CHECK_MSG(finalized_, "run before finalize");
  for (std::size_t i = 0; i < processes_.size(); ++i)
    DFLP_CHECK_MSG(processes_[i] != nullptr, "node " << i << " has no process");
  const std::size_t n = processes_.size();

  // The port under which clique node `dst` hears `src`: src's position in
  // dst's rotation [dst+1, ..., N-1, 0, ..., dst-1].
  const auto clique_port = [n](std::size_t src, std::size_t dst) {
    return static_cast<std::int32_t>(src > dst ? src - dst - 1
                                               : src + n - dst - 1);
  };

  // Broadcast destination expansion in canonical order, with each copy's
  // receiver port: explicit topologies walk the sender's sorted adjacency
  // beside its reverse positions; the clique iterates every node id
  // ascending, skipping the sender — the same ascending order, with no
  // materialized per-node list to walk.
  const auto for_each_broadcast_dst = [&](NodeId src, auto&& fn) {
    const auto s = static_cast<std::size_t>(src);
    if (clique_) {
      for (std::size_t v = 0; v < n; ++v)
        if (v != s) fn(static_cast<NodeId>(v), clique_port(s, v));
    } else {
      const auto base = static_cast<std::size_t>(csr_.offset[s]);
      const std::span<const NodeId> nbrs = neighbors_unchecked(s);
      for (std::size_t j = 0; j < nbrs.size(); ++j)
        fn(nbrs[j], csr_.rev[base + j]);
    }
  };

  const bool hazards = fault_plan_.message_hazards();
  RoundBuffer::Limits limits;
  limits.bit_budget = options_.bit_budget;
  // Fault-free staging tallies destinations straight into the count column;
  // hazard commits count surviving copies instead, so staging skips it.
  if (!hazards) {
    limits.dst_count = dst_count_.data();
    limits.touched = &next_touched_;
  }

  // Tracing is a pure observation layer: when no tracer is attached the
  // only cost is the `if (tracer)` test per round, and with one attached
  // the execution (messages, metrics, RNG streams) is still bit-identical —
  // the tracer only reads clocks and copies counters the engine computes
  // anyway. See netsim/trace.h for the full cost contract.
  Tracer* const tracer = options_.tracer;
  limits.capture_annotations = tracer != nullptr && tracer->capture_phases();
  if (tracer) {
    TraceSection info;
    info.nodes = processes_.size();
    info.edges = num_edges_;
    info.seed = options_.seed;
    info.bit_budget = options_.bit_budget;
    tracer->begin_run(info);
  }
  using TraceClock = std::chrono::steady_clock;
  const auto seconds_between = [](TraceClock::time_point a,
                                  TraceClock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
  };
  std::map<std::string_view, std::uint64_t> phase_counts;
  RoundBuffer buffer;

  // Merged into cumulative_ even when a round throws (protocol failure
  // under fault injection): the fault counters must survive so the failure
  // diagnostic can name the first lost message.
  NetMetrics run_metrics;
  try {
  for (std::uint64_t step = 0; step < max_rounds; ++step) {
    // Per-round trace state. The `before` counters turn run_metrics'
    // cumulative fault totals into round-local deltas for the record.
    std::uint64_t crashed_before = 0, dropped_before = 0, dup_before = 0;
    TraceClock::time_point t_step0{}, t_step1{}, t_commit1{}, t_scatter1{};
    if (tracer) {
      crashed_before = run_metrics.crashed;
      dropped_before = run_metrics.dropped;
      dup_before = run_metrics.duplicated;
    }

    // Crash-stop faults: remove nodes whose scheduled crash round arrived,
    // before they step this round. The crashed node's in-flight inbox dies
    // with it and its neighbours get no signal — that is the point of the
    // crash-stop model.
    if (crash_cursor_ < fault_plan_.crash_schedule().size()) {
      const auto& schedule = fault_plan_.crash_schedule();
      bool any = false;
      while (crash_cursor_ < schedule.size() &&
             schedule[crash_cursor_].round <= round_) {
        const auto i =
            static_cast<std::size_t>(schedule[crash_cursor_].node);
        ++crash_cursor_;
        if (halted_[i]) continue;  // already halted voluntarily
        halted_[i] = 1;
        ++run_metrics.crashed;
        any = true;
      }
      if (any) {
        std::erase_if(live_nodes_, [&](NodeId v) {
          return halted_[static_cast<std::size_t>(v)] != 0;
        });
      }
    }

    // Quiescence: everyone halted and nothing resident in the arena. Both
    // counters are maintained by the commit phase, so this is O(1). Every
    // staged send was committed before the previous round ended, so the
    // arena is the complete in-flight state (resume relies on this).
    if (live_nodes_.empty() && inflight_messages_ == 0) break;

    // A skipped round (see the header's sleeping-nodes section): every live
    // node sleeps past it and nothing is in flight, so nothing runs; the
    // round only counts, and a traced run records it with zero counters.
    if (round_ < skip_until_) {
      if (tracer) {
        TraceRound record;
        record.round = round_;
        record.live = live_nodes_.size();
        record.path = TracePath::kSkip;
        tracer->on_round(std::move(record));
      }
      run_metrics.rounds += 1;
      round_ += 1;
      continue;
    }

    const std::size_t live_count = live_nodes_.size();

    // This round stages into the log of its parity; the other log still
    // backs the arena being consumed (its records and header column must
    // stay addressable until the gather below reads them).
    StageLog& log = stage_logs_[static_cast<std::size_t>(round_ & 1)];
    const StageLog& inbound =
        stage_logs_[static_cast<std::size_t>((round_ & 1) ^ 1)];
    log.reset();

    // Step phase: every live node that is awake or has mail gathers its
    // inbox and runs against the log through the re-armed buffer; a
    // sleeper without mail is passed over.
    if (tracer) t_step0 = TraceClock::now();
    for (const NodeId id : live_nodes_) {
      const auto i = static_cast<std::size_t>(id);
      if (wake_[i] > round_ && slice_count_[i] == 0) continue;
      const std::span<Message> inbox = gather_inbox(i, inbound);
      order_inbox(inbox, id);
      const std::span<const NodeId> nbrs = neighbors_unchecked(i);
      buffer.begin(id, round_, nbrs, limits, &log, &link_stamps_,
                   options_.topology, &wake_[i]);
      NodeContext ctx(buffer, id, round_, nbrs, node_rngs_[i]);
      processes_[i]->on_round(ctx, std::span<const Message>(inbox));
      if (wake_[i] <= round_ + 1 && !buffer.halt_requested()) ++log.awake;
    }
    if (tracer) t_step1 = TraceClock::now();

    // The step has consumed the pull round in flight, if any: its senders
    // are the inbound log's records, so clearing their entries returns the
    // pull column to all-null in O(records).
    if (pulled_) {
      for (const WireRecord& rec : inbound.records)
        pull_rec_[static_cast<std::size_t>(rec.src)] = nullptr;
      pulled_ = false;
    }

    // Commit, pass 1 — tally. Fault-free rounds read the log's aggregates:
    // staging already counted every copy into dst_count_, so nothing is
    // walked per message. Rounds with message hazards walk the records in
    // canonical order instead, drawing the per-(seed, sender, round) fault
    // coins in send order (broadcasts expand here, one coin per copy in
    // adjacency order — the legacy per-copy stream) and packing survivors
    // into the contiguous survivors_ scratch so the coins are consumed
    // exactly once.
    const std::uint64_t sent_this_round = log.messages;
    std::uint64_t bits_acc = 0;
    int max_bits = 0;  // round-local; merged into run_metrics after tally
    survivors_.clear();
    transport_touches_ += live_count;
    if (limits.capture_annotations) {
      for (const std::string_view phase : log.annotations)
        ++phase_counts[phase];
    }
    if (!hazards) {
      bits_acc = log.bits_sum;
      max_bits = log.max_bits;
    } else {
      FaultPlan::SenderCoins coins;
      NodeId coin_sender = kNoNode;
      for (std::size_t ri = 0; ri < log.records.size(); ++ri) {
        const WireRecord& rec = log.records[ri];
        if (rec.src != coin_sender) {
          // Records are contiguous per sender, so this opens the coin
          // streams exactly once per sender that staged anything — the
          // legacy begin_sender cadence.
          coin_sender = rec.src;
          coins = fault_plan_.begin_sender(coin_sender, round_);
        }
        const auto deliver_copy = [&](NodeId to, std::int32_t port) {
          const FaultPlan::Fate fate =
              fault_plan_.fate(coins, rec.src, to, round_);
          if (fate.dropped) {
            if (run_metrics.dropped == 0 && cumulative_.dropped == 0) {
              run_metrics.first_drop_round = round_;
              run_metrics.first_drop_src = rec.src;
              run_metrics.first_drop_dst = to;
              run_metrics.first_drop_kind = rec.kind;
            }
            ++run_metrics.dropped;
            return;
          }
          const int copies = fate.duplicated ? 2 : 1;
          if (fate.duplicated) ++run_metrics.duplicated;
          for (int c = 0; c < copies; ++c) {
            bits_acc += static_cast<std::uint64_t>(rec.bits);
            max_bits = std::max(max_bits, static_cast<int>(rec.bits));
            const auto dst = static_cast<std::size_t>(to);
            if (dst_count_[dst]++ == 0) next_touched_.push_back(to);
            survivors_.push_back({&rec, to, port});
          }
        };
        if (rec.flags & kWireBroadcast) {
          for_each_broadcast_dst(rec.src, deliver_copy);
        } else {
          deliver_copy(rec.dst, receiver_port(rec.src, log.ports[ri]));
        }
      }
    }
    const std::uint64_t survivors =
        hazards ? survivors_.size() : sent_this_round;
    run_metrics.messages += survivors;
    run_metrics.total_bits += bits_acc;
    run_metrics.max_message_bits =
        std::max(run_metrics.max_message_bits, max_bits);

    // Commit, pass 2 — layout: the step phase consumed the old arena, so
    // retire its slices and prefix-sum the tally into the new ones.
    // dst_count_ returns to all-zero. Sparse rounds visit only the touched
    // list; dense rounds (survivors >= N/8, a deterministic gate that keeps
    // the pass O(live + messages)) rebuild the touched list by one
    // ascending scan of the count column instead — branch-predictable,
    // auto-vectorizable, and it lays slices out in ascending destination
    // order, which the scatter and gather then walk monotonically.
    for (const NodeId d : touched_)
      slice_count_[static_cast<std::size_t>(d)] = 0;
    touched_.swap(next_touched_);
    next_touched_.clear();
    std::size_t offset = 0;
    if (!touched_.empty() && survivors >= n / 8) {
      touched_.clear();
      for (std::size_t dst = 0; dst < n; ++dst) {
        if (dst_count_[dst] == 0) continue;
        touched_.push_back(static_cast<NodeId>(dst));
        slice_begin_[dst] = offset;
        slice_count_[dst] = dst_count_[dst];
        dst_cursor_[dst] = offset;
        offset += static_cast<std::size_t>(dst_count_[dst]);
        dst_count_[dst] = 0;
        ++transport_touches_;
      }
    } else {
      for (const NodeId d : touched_) {
        const auto dst = static_cast<std::size_t>(d);
        slice_begin_[dst] = offset;
        slice_count_[dst] = dst_count_[dst];
        dst_cursor_[dst] = offset;
        offset += static_cast<std::size_t>(dst_count_[dst]);
        dst_count_[dst] = 0;
        ++transport_touches_;
      }
    }

    // Pull gate (see the header comment): a fault-free, explicit round of
    // broadcasts only, whose receivers' adjacency walks cost at most twice
    // its copies, is left for the receivers to read; any other round is
    // scattered into slots.
    bool pull = false;
    if (!hazards && !clique_ && !log.records.empty() &&
        log.broadcasts == log.records.size()) {
      std::uint64_t walk = 0;
      for (const NodeId d : touched_) {
        const auto v = static_cast<std::size_t>(d);
        walk +=
            static_cast<std::uint64_t>(csr_.offset[v + 1] - csr_.offset[v]);
      }
      pull = walk <= 2 * survivors;
    }
    if (!pull) {
      next_arena_.resize(offset);
      next_arena_port_.resize(offset);
    }
    if (tracer) t_commit1 = TraceClock::now();

    // Commit, pass 3 — scatter: write each surviving record's address into
    // its destination slice (8-byte slots — the payload columns never
    // move) and its receiver port into the parallel port column, expanding
    // broadcast records over the sender's adjacency. The log is scanned in
    // canonical order, so every slice fills in ascending-sender order with
    // ties in send-call order. A frame's header stays in the log's column,
    // where the gather finds it by the record's address. Rounds with drops
    // read the pre-filtered survivors_ scratch so the fault coins are not
    // re-drawn. A pull round writes no slot: it only notes each
    // broadcaster's record in the pull column.
    const auto place = [&](std::size_t dst, const WireRecord* rec,
                           std::int32_t port) {
      const std::size_t slot = dst_cursor_[dst]++;
      next_arena_[slot] = rec;
      next_arena_port_[slot] = port;
    };
    if (pull) {
      for (const WireRecord& rec : log.records)
        pull_rec_[static_cast<std::size_t>(rec.src)] = &rec;
      pulled_ = true;
      ++pulled_rounds_;
    } else if (hazards) {
      for (const Survivor& sv : survivors_)
        place(static_cast<std::size_t>(sv.dst), sv.rec, sv.port);
    } else {
      for (std::size_t ri = 0; ri < log.records.size(); ++ri) {
        const WireRecord& rec = log.records[ri];
        if (!(rec.flags & kWireBroadcast)) {
          place(static_cast<std::size_t>(rec.dst), &rec,
                receiver_port(rec.src, log.ports[ri]));
          continue;
        }
        const auto src = static_cast<std::size_t>(rec.src);
        if (clique_) {
          // All-to-all fan-out: every node but the sender, ascending, in
          // two runs around the sender so each port is a linear function.
          for (std::size_t dst = 0; dst < src; ++dst)
            place(dst, &rec, static_cast<std::int32_t>(src - dst - 1));
          for (std::size_t dst = src + 1; dst < n; ++dst)
            place(dst, &rec, static_cast<std::int32_t>(src + n - dst - 1));
          continue;
        }
        const std::span<const NodeId> nbrs = neighbors_unchecked(src);
        const std::int32_t* rev = csr_.rev.data() + csr_.offset[src];
        for (std::size_t j = 0; j < nbrs.size(); ++j) {
          if (j + kScatterPrefetch < nbrs.size())
            __builtin_prefetch(&dst_cursor_[static_cast<std::size_t>(
                nbrs[j + kScatterPrefetch])]);
          place(static_cast<std::size_t>(nbrs[j]), &rec, rev[j]);
        }
      }
    }
    if (!pull) {
      arena_.swap(next_arena_);
      arena_port_.swap(next_arena_port_);
    }
    inflight_messages_ = survivors;
    if (tracer) t_scatter1 = TraceClock::now();

    // Commit, pass 4 — halts: apply the requests the log collected and
    // compact the live list, in O(#halts) unless someone halted.
    if (!log.halts.empty()) {
      for (const NodeId v : log.halts) halted_[static_cast<std::size_t>(v)] = 1;
      std::erase_if(live_nodes_, [&](NodeId v) {
        return halted_[static_cast<std::size_t>(v)] != 0;
      });
    }

    run_metrics.max_messages_in_round =
        std::max(run_metrics.max_messages_in_round, sent_this_round);

    if (tracer) {
      TraceRound record;
      record.round = round_;
      record.live = live_count;
      record.sent = sent_this_round;
      record.delivered = survivors;
      record.dropped = run_metrics.dropped - dropped_before;
      record.duplicated = run_metrics.duplicated - dup_before;
      record.crashed = run_metrics.crashed - crashed_before;
      record.halted = log.halts.size();
      record.bits = bits_acc;
      record.max_bits = max_bits;
      record.arena = survivors;
      record.step_s = seconds_between(t_step0, t_step1);
      record.commit_s = seconds_between(t_step1, t_commit1);
      record.scatter_s = seconds_between(t_commit1, t_scatter1);
      record.path = pull ? TracePath::kPull : TracePath::kPush;
      record.phases.reserve(phase_counts.size());
      for (const auto& [phase, count] : phase_counts)
        record.phases.emplace_back(std::string(phase), count);
      phase_counts.clear();
      tracer->on_round(std::move(record));
    }

    run_metrics.rounds += 1;
    round_ += 1;

    // Nobody stays awake and nothing is in flight: skip to the earliest
    // wake round, but no further than the next crash, so crashes are
    // applied by an ordinary round.
    if (log.awake == 0 && inflight_messages_ == 0 && !live_nodes_.empty()) {
      std::uint64_t next = std::numeric_limits<std::uint64_t>::max();
      for (const NodeId v : live_nodes_) {
        next = std::min<std::uint64_t>(next,
                                       wake_[static_cast<std::size_t>(v)]);
      }
      const auto& schedule = fault_plan_.crash_schedule();
      if (crash_cursor_ < schedule.size())
        next = std::min(next, schedule[crash_cursor_].round);
      skip_until_ = next;
    }
  }
  } catch (...) {
    cumulative_.merge(run_metrics);
    throw;
  }

  cumulative_.merge(run_metrics);
  return run_metrics;
}

}  // namespace dflp::net
