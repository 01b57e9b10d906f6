#include "core/mw_greedy.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/check.h"
#include "core/bipartite.h"
#include "core/transport.h"

namespace dflp::core {

namespace {

// Protocol opcodes.
constexpr std::uint8_t kOffer = 1;
constexpr std::uint8_t kAccept = 2;
constexpr std::uint8_t kGrant = 3;
constexpr std::uint8_t kCovered = 4;
constexpr std::uint8_t kOpenReq = 5;

/// Static data shared read-only by every node: the derived schedule plus
/// the round layout constants.
struct Shared {
  MwSchedule sched;
  MwParams params;
  std::uint64_t scheduled_rounds = 0;  // 4 * levels * subphases
  net::NodeId first_client = 0;        // network node of client 0

  /// The round a facility must step in after the offer rounds: base + 1
  /// serves mop-up requests, or base halts without mop-up.
  [[nodiscard]] std::uint64_t mopup_round() const {
    return scheduled_rounds + (params.mopup ? 1 : 0);
  }
};

class FacilityProc final : public net::Process {
 public:
  /// `edges` is the facility's cost-sorted instance slice and `cost_index`
  /// its EdgeTable column (port -> index into `edges`); both are borrowed.
  FacilityProc(const Shared* shared, double opening_cost,
               std::span<const fl::FacilityEdge> edges,
               std::span<const std::int32_t> cost_index)
      : shared_(shared), opening_cost_(opening_cost), edges_(edges),
        cost_index_(cost_index), covered_(edges.size(), 0),
        uncovered_count_(static_cast<int>(edges.size())) {}

  [[nodiscard]] bool opened() const noexcept { return open_; }

  void on_round(net::NodeContext& ctx,
                std::span<const net::Message> inbox) override {
    const std::uint64_t r = ctx.round();
    // Absorb coverage notices whenever they arrive (phase-3 broadcasts land
    // in the next phase-0 round; mop-up notices can land later too).
    for (const net::Message& msg : inbox) {
      if (msg.kind == kCovered) mark_covered(msg.port);
    }

    if (r < shared_->scheduled_rounds) {
      switch (r % 4) {
        case 0:
          if (uncovered_count_ == 0) {
            // Nothing left to serve and mop-up requests can only come from
            // uncovered neighbours: this facility is done.
            ctx.halt();
            return;
          }
          maybe_offer(ctx, r);
          break;
        case 2:
          maybe_open_and_grant(ctx, inbox);
          break;
        default:
          break;  // phases 1 and 3 belong to the clients
      }
      ctx.sleep_until(next_wake_round(r));
      return;
    }

    // Mop-up window. Round base+1: serve OPEN_REQs, then halt.
    const std::uint64_t base = shared_->scheduled_rounds;
    if (!shared_->params.mopup || r >= base + 1) {
      bool served = false;
      for (const net::Message& msg : inbox) {
        if (msg.kind == kOpenReq) {
          open_ = true;
          ctx.send(msg.src, kGrant);
          served = true;
        }
      }
      if (served) ctx.annotate("mopup-grant");
      ctx.halt();
    }
    // Round base+0: just absorbed trailing COVERED notices; stay for the
    // requests arriving next round.
  }

 private:
  void mark_covered(std::int32_t port) {
    const auto t = static_cast<std::size_t>(
        cost_index_[static_cast<std::size_t>(port)]);
    if (!covered_[t]) {
      covered_[t] = 1;
      --uncovered_count_;
      star_stale_ = true;
    }
  }

  /// Best star over uncovered neighbours, cached in star_ratio_ and
  /// star_size_: recomputed only after a COVERED notice or open_ flipped.
  /// edges_ is cost-sorted, so the scan walks the prefix.
  void refresh_star() {
    if (!star_stale_) return;
    star_stale_ = false;
    double num = open_ ? 0.0 : opening_cost_;
    double best = std::numeric_limits<double>::infinity();
    int best_size = 0;
    int size = 0;
    for (std::size_t t = 0; t < edges_.size(); ++t) {
      if (covered_[t]) continue;
      num += edges_[t].cost;
      ++size;
      const double ratio = num / static_cast<double>(size);
      if (ratio < best) {
        best = ratio;
        best_size = size;
      }
    }
    star_ratio_ = best;
    star_size_ = best_size;
  }

  void maybe_offer(net::NodeContext& ctx, std::uint64_t r) {
    const auto iteration = r / 4;
    const auto level = static_cast<int>(
        iteration / static_cast<std::uint64_t>(shared_->sched.subphases));
    DFLP_CHECK(level < shared_->sched.levels);
    const double threshold =
        shared_->sched.thresholds[static_cast<std::size_t>(level)];

    refresh_star();
    const int star = star_size_;
    if (star == 0 || !(star_ratio_ <= threshold)) return;

    // Offer the star prefix to its uncovered clients.
    ctx.annotate("offer");
    offered_star_ = star;
    int sent = 0;
    for (std::size_t t = 0; t < edges_.size() && sent < star; ++t) {
      if (covered_[t]) continue;
      ctx.send(shared_->first_client + edges_[t].client, kOffer);
      ++sent;
    }
  }

  /// The grant round answers this sub-phase's offer, if any, and consumes
  /// it. Accepts are counted in one pass over the inbox and granted in a
  /// second, in inbox order.
  void maybe_open_and_grant(net::NodeContext& ctx,
                            std::span<const net::Message> inbox) {
    const int star = std::exchange(offered_star_, 0);
    if (star == 0) return;
    int accepts = 0;
    for (const net::Message& msg : inbox) {
      if (msg.kind == kAccept) ++accepts;
    }
    if (accepts == 0) return;

    int needed = 1;
    if (shared_->params.accept_rule == AcceptRule::kFractionOfStar) {
      needed = std::max(
          1, static_cast<int>(std::ceil(static_cast<double>(star) /
                                        shared_->sched.beta)));
    }
    if (accepts < needed) return;

    ctx.annotate("open");
    open_ = true;
    star_stale_ = true;
    for (const net::Message& msg : inbox) {
      if (msg.kind == kAccept) ctx.send(msg.src, kGrant);
    }
  }

  /// Wake rule: after an offer, its grant round; otherwise the first offer
  /// round whose rung admits the cached star, or the mop-up round when none
  /// does. A COVERED notice wakes the facility in an offer round, where one
  /// left with no uncovered neighbour halts, so a sleeper always has one.
  [[nodiscard]] std::uint64_t next_wake_round(std::uint64_t r) {
    if (offered_star_ != 0) return r / 4 * 4 + 2;
    refresh_star();
    if (star_size_ == 0) return shared_->mopup_round();
    return shared_->sched.first_admitting_round(4, (r / 4 + 1) * 4,
                                                star_ratio_,
                                                shared_->mopup_round());
  }

  const Shared* shared_;
  double opening_cost_;
  std::span<const fl::FacilityEdge> edges_;  // cost-sorted
  std::span<const std::int32_t> cost_index_;  // port -> index into edges_
  std::vector<std::uint8_t> covered_;         // parallel to edges_
  int uncovered_count_ = 0;
  int offered_star_ = 0;  // star offered this sub-phase, until its grant round
  int star_size_ = 0;     // best star, cached with star_ratio_
  bool open_ = false;
  bool star_stale_ = true;  // star_size_ and star_ratio_ need a rescan
  double star_ratio_ = 0.0;
};

class ClientProc final : public net::Process {
 public:
  /// `edges` is the client's cost-sorted instance slice and `cost_index`
  /// its EdgeTable column; both are borrowed.
  ClientProc(const Shared* shared, std::span<const fl::ClientEdge> edges,
             std::span<const std::int32_t> cost_index)
      : shared_(shared), edges_(edges), cost_index_(cost_index) {}

  [[nodiscard]] bool covered() const noexcept { return covered_; }
  [[nodiscard]] net::NodeId assigned_facility_node() const noexcept {
    return assigned_;
  }
  [[nodiscard]] bool covered_by_mopup() const noexcept { return by_mopup_; }

  void on_round(net::NodeContext& ctx,
                std::span<const net::Message> inbox) override {
    const std::uint64_t r = ctx.round();
    if (r < shared_->scheduled_rounds) {
      switch (r % 4) {
        case 1:
          maybe_accept(ctx, inbox);
          break;
        case 3:
          if (maybe_finalize_grant(ctx, inbox)) return;  // halted
          break;
        default:
          break;
      }
      // Offers and grants arrive as messages; an accept waits for its grant
      // round, where a refusal clears it.
      ctx.sleep_until(pending_ != net::kNoNode ? r / 4 * 4 + 3
                                               : shared_->scheduled_rounds);
      return;
    }

    const std::uint64_t base = shared_->scheduled_rounds;
    if (!shared_->params.mopup) {
      ctx.halt();
      return;
    }
    if (r == base) {
      if (!covered_) {
        // edges_ is cost-sorted: front is the cheapest facility.
        ctx.annotate("mopup-request");
        pending_ = facility_node(edges_.front().facility);
        ctx.send(pending_, kOpenReq);
        by_mopup_ = true;
        ctx.sleep_until(base + 2);  // the grant lands then
      } else {
        ctx.halt();
      }
      return;
    }
    if (r == base + 1) return;  // request in flight; grant arrives next
    // base+2: the grant for the mop-up request arrives.
    for (const net::Message& msg : inbox) {
      if (msg.kind == kGrant && msg.src == pending_) {
        covered_ = true;
        assigned_ = msg.src;
      }
    }
    DFLP_CHECK_MSG(covered_, "mop-up grant missing for client node "
                                 << ctx.self());
    ctx.halt();
  }

 private:
  void maybe_accept(net::NodeContext& ctx,
                    std::span<const net::Message> inbox) {
    pending_ = net::kNoNode;
    if (covered_) return;
    // Cheapest offering facility by exact local cost, ties by node id: the
    // smallest cost index among the offering ports encodes exactly that
    // preference.
    std::int32_t best = std::numeric_limits<std::int32_t>::max();
    for (const net::Message& m : inbox) {
      if (m.kind == kOffer)
        best = std::min(best, cost_index_[static_cast<std::size_t>(m.port)]);
    }
    if (best == std::numeric_limits<std::int32_t>::max()) return;
    ctx.annotate("accept");
    pending_ = facility_node(edges_[static_cast<std::size_t>(best)].facility);
    ctx.send(pending_, kAccept);
  }

  /// Returns true when the client connected and halted.
  bool maybe_finalize_grant(net::NodeContext& ctx,
                            std::span<const net::Message> inbox) {
    if (covered_ || pending_ == net::kNoNode) return false;
    for (const net::Message& msg : inbox) {
      if (msg.kind == kGrant && msg.src == pending_) {
        ctx.annotate("connect");
        covered_ = true;
        assigned_ = msg.src;
        ctx.broadcast(kCovered);
        ctx.halt();  // nothing further to say or learn
        return true;
      }
    }
    pending_ = net::kNoNode;  // no grant: retry in a later sub-phase
    return false;
  }

  const Shared* shared_;
  std::span<const fl::ClientEdge> edges_;     // cost-sorted
  std::span<const std::int32_t> cost_index_;  // port -> index into edges_
  bool covered_ = false;
  bool by_mopup_ = false;
  net::NodeId assigned_ = net::kNoNode;
  net::NodeId pending_ = net::kNoNode;
};

}  // namespace

MwGreedyOutcome run_mw_greedy(const fl::Instance& inst,
                              const MwParams& params) {
  Shared shared;
  shared.sched = derive_schedule(inst, params);
  shared.params = params;
  shared.scheduled_rounds = 4ULL *
                            static_cast<std::uint64_t>(shared.sched.levels) *
                            static_cast<std::uint64_t>(shared.sched.subphases);
  shared.first_client = client_node(inst, 0);

  const std::uint64_t logical_bound = shared.scheduled_rounds + 8;

  net::Network::Options options;
  options.bit_budget = shared.sched.bit_budget;
  options.seed = params.seed;
  options.delivery = params.delivery;
  apply_transport_options(options, params, logical_bound);
  if (params.tracer != nullptr) params.tracer->set_section("mw-greedy");
  EdgeTable table;
  net::Network net = make_bipartite_network(inst, options, table);

  for (fl::FacilityId i = 0; i < inst.num_facilities(); ++i) {
    const net::NodeId v = facility_node(i);
    net.set_process(v, maybe_reliable(std::make_unique<FacilityProc>(
                                          &shared, inst.opening_cost(i),
                                          inst.facility_edges(i),
                                          table.cost_index(v)),
                                      params, shared.sched.bit_budget));
  }
  for (fl::ClientId j = 0; j < inst.num_clients(); ++j) {
    const net::NodeId v = client_node(inst, j);
    net.set_process(v, maybe_reliable(std::make_unique<ClientProc>(
                                          &shared, inst.client_edges(j),
                                          table.cost_index(v)),
                                      params, shared.sched.bit_budget));
  }

  const std::uint64_t max_rounds = transport_max_rounds(params, logical_bound);
  return with_fault_context(net, [&] {
    MwGreedyOutcome outcome{fl::IntegralSolution(inst), net.run(max_rounds),
                            shared.sched, 0, {}};

    for (fl::FacilityId i = 0; i < inst.num_facilities(); ++i) {
      const auto& proc =
          transport_inner<FacilityProc>(net, params, facility_node(i));
      if (proc.opened()) outcome.solution.open(i);
    }
    for (fl::ClientId j = 0; j < inst.num_clients(); ++j) {
      const auto& proc =
          transport_inner<ClientProc>(net, params, client_node(inst, j));
      if (proc.covered()) {
        outcome.solution.assign(
            j, node_to_facility(proc.assigned_facility_node()));
      }
      if (proc.covered_by_mopup()) ++outcome.mopup_clients;
    }
    outcome.transport = collect_transport_stats(net, params);
    if (params.mopup) {
      std::string why;
      DFLP_CHECK_MSG(outcome.solution.is_feasible(inst, &why),
                     "mw-greedy with mop-up must be feasible: " << why);
    }
    return outcome;
  });
}

}  // namespace dflp::core
