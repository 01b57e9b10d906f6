#include "core/rand_round.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "core/bipartite.h"
#include "core/transport.h"

namespace dflp::core {

namespace {

constexpr std::uint8_t kOpen = 20;
constexpr std::uint8_t kOpenReq = 21;
constexpr std::uint8_t kGrant = 22;

struct Shared {
  const MwSchedule* sched = nullptr;
  double boost = 1.0;
  std::uint64_t scheduled_rounds = 0;  // 2 * rounding_phases
};

std::uint64_t scheduled_rounds(const MwSchedule& schedule) {
  return 2ULL * static_cast<std::uint64_t>(schedule.rounding_phases);
}

class FacilityProc final : public net::Process {
 public:
  FacilityProc(const Shared* shared, double y)
      : shared_(shared), p_(std::min(1.0, y * shared->boost)) {}

  [[nodiscard]] bool opened() const noexcept { return open_; }

  void on_round(net::NodeContext& ctx,
                std::span<const net::Message> inbox) override {
    const std::uint64_t r = ctx.round();
    const std::uint64_t base = shared_->scheduled_rounds;
    if (r < base) {
      if (r % 2 == 0 && !open_) {
        if (p_ > 0.0 && ctx.rng().bernoulli(p_)) {
          ctx.annotate("flip-open");
          open_ = true;
          ctx.broadcast(kOpen);
        }
      }
      // A facility that still draws sleeps over the odd rounds; one that
      // cannot draw again waits for the fallback requests at base + 1.
      const std::uint64_t next_draw = r + 2 - r % 2;
      ctx.sleep_until(!open_ && p_ > 0.0 && next_draw < base ? next_draw
                                                             : base + 1);
      return;
    }
    if (r >= base + 1) {
      bool served = false;
      for (const net::Message& msg : inbox) {
        if (msg.kind == kOpenReq) {
          open_ = true;
          ctx.send(msg.src, kGrant);
          served = true;
        }
      }
      if (served) ctx.annotate("fallback-grant");
      ctx.halt();
    }
  }

 private:
  const Shared* shared_;
  double p_;  // opening probability per draw, min(1, y * boost)
  bool open_ = false;
};

class ClientProc final : public net::Process {
 public:
  /// `edges` in cost order, `cost_index` its EdgeTable column (port ->
  /// index into `edges`) and `x` the parallel fractional support — all
  /// borrowed for the run.
  ClientProc(const Shared* shared, std::span<const fl::ClientEdge> edges,
             std::span<const std::int32_t> cost_index,
             std::span<const double> x)
      : shared_(shared), edges_(edges), cost_index_(cost_index), x_(x),
        open_known_(edges.size(), 0) {
    DFLP_CHECK(x_.size() == edges_.size());
  }

  [[nodiscard]] bool covered() const noexcept { return covered_; }
  [[nodiscard]] net::NodeId assigned_facility_node() const noexcept {
    return assigned_;
  }
  [[nodiscard]] bool used_fallback() const noexcept { return fallback_; }

  void on_round(net::NodeContext& ctx,
                std::span<const net::Message> inbox) override {
    const std::uint64_t r = ctx.round();
    for (const net::Message& msg : inbox) {
      if (msg.kind == kOpen) {
        open_known_[static_cast<std::size_t>(
            cost_index_[static_cast<std::size_t>(msg.port)])] = 1;
      }
    }

    if (r < shared_->scheduled_rounds) {
      if (r % 2 == 1 && !covered_) try_connect(ctx);
      // OPEN announcements arrive as messages and are weighed on arrival.
      ctx.sleep_until(shared_->scheduled_rounds);
      return;
    }

    const std::uint64_t base = shared_->scheduled_rounds;
    if (r == base) {
      if (!covered_) try_connect(ctx);  // late announcements from phase P-1
      if (covered_) {
        ctx.halt();
        return;
      }
      // Fallback: cheapest facility with positive fractional support
      // (edges are cost-sorted); the fractional solution is feasible, so
      // one exists.
      pending_ = net::kNoNode;
      for (std::size_t t = 0; t < edges_.size(); ++t) {
        if (x_[t] > 0.0) {
          pending_ = facility_node(edges_[t].facility);
          break;
        }
      }
      if (pending_ == net::kNoNode)
        pending_ = facility_node(edges_.front().facility);
      ctx.annotate("fallback");
      ctx.send(pending_, kOpenReq);
      fallback_ = true;
      ctx.sleep_until(base + 2);  // the grant lands then
      return;
    }
    if (r == base + 1) return;  // request in flight
    for (const net::Message& msg : inbox) {
      if (msg.kind == kGrant && msg.src == pending_) {
        covered_ = true;
        assigned_ = msg.src;
      }
    }
    DFLP_CHECK_MSG(covered_, "rounding fallback grant missing at node "
                                 << ctx.self());
    ctx.halt();
  }

 private:
  void try_connect(net::NodeContext& ctx) {
    for (std::size_t t = 0; t < edges_.size(); ++t) {  // cost order
      if (open_known_[t]) {
        ctx.annotate("connect");
        covered_ = true;
        assigned_ = facility_node(edges_[t].facility);
        return;
      }
    }
  }

  const Shared* shared_;
  std::span<const fl::ClientEdge> edges_;     // cost-sorted
  std::span<const std::int32_t> cost_index_;  // port -> index into edges_
  std::span<const double> x_;                 // parallel to edges_
  std::vector<std::uint8_t> open_known_;      // parallel to edges_
  bool covered_ = false;
  bool fallback_ = false;
  net::NodeId assigned_ = net::kNoNode;
  net::NodeId pending_ = net::kNoNode;
};

}  // namespace

net::Network::Options rand_round_options(const MwSchedule& schedule,
                                         const MwParams& params) {
  net::Network::Options options;
  options.bit_budget = schedule.bit_budget;
  options.seed = params.seed ^ 0x5EEDB00572ULL;  // decorrelate from stage 1
  options.delivery = params.delivery;
  apply_transport_options(options, params, scheduled_rounds(schedule) + 8);
  return options;
}

RoundOutcome run_rand_round(net::Network& net, const EdgeTable& table,
                            const fl::Instance& inst,
                            const fl::FractionalSolution& fractional,
                            const MwSchedule& schedule,
                            const MwParams& params) {
  {
    std::string why;
    DFLP_CHECK_MSG(fractional.is_feasible(inst, 1e-6, &why),
                   "rounding requires a feasible fractional input: " << why);
  }
  Shared shared;
  shared.sched = &schedule;
  shared.boost = params.rounding_boost;
  shared.scheduled_rounds = scheduled_rounds(schedule);
  const std::uint64_t logical_bound = shared.scheduled_rounds + 8;
  if (params.tracer != nullptr) params.tracer->set_section("rand-round");

  for (fl::FacilityId i = 0; i < inst.num_facilities(); ++i) {
    net.set_process(facility_node(i),
                    maybe_reliable(std::make_unique<FacilityProc>(
                                       &shared,
                                       fractional.y[static_cast<std::size_t>(i)]),
                                   params, schedule.bit_budget));
  }
  const std::span<const double> x(fractional.x);
  for (fl::ClientId j = 0; j < inst.num_clients(); ++j) {
    const net::NodeId v = client_node(inst, j);
    const std::span<const fl::ClientEdge> edges = inst.client_edges(j);
    net.set_process(
        v, maybe_reliable(std::make_unique<ClientProc>(
                              &shared, edges, table.cost_index(v),
                              x.subspan(inst.client_edge_offset(j),
                                        edges.size())),
                          params, schedule.bit_budget));
  }

  return with_fault_context(net, [&] {
    RoundOutcome outcome(inst);
    outcome.metrics = net.run(transport_max_rounds(params, logical_bound));

    for (fl::FacilityId i = 0; i < inst.num_facilities(); ++i) {
      const auto& proc =
          transport_inner<FacilityProc>(net, params, facility_node(i));
      if (proc.opened()) outcome.solution.open(i);
    }
    for (fl::ClientId j = 0; j < inst.num_clients(); ++j) {
      const auto& proc =
          transport_inner<ClientProc>(net, params, client_node(inst, j));
      DFLP_CHECK(proc.covered());
      outcome.solution.assign(j,
                              node_to_facility(proc.assigned_facility_node()));
      if (proc.used_fallback()) ++outcome.fallback_clients;
    }
    outcome.transport = collect_transport_stats(net, params);
    std::string why;
    DFLP_CHECK_MSG(outcome.solution.is_feasible(inst, &why),
                   "rounded solution must be feasible: " << why);
    return outcome;
  });
}

RoundOutcome run_rand_round(const fl::Instance& inst,
                            const fl::FractionalSolution& fractional,
                            const MwSchedule& schedule,
                            const MwParams& params) {
  EdgeTable table;
  net::Network net = make_bipartite_network(
      inst, rand_round_options(schedule, params), table);
  return run_rand_round(net, table, inst, fractional, schedule, params);
}

}  // namespace dflp::core
