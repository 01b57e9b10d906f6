#include "core/frac_lp.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "core/bipartite.h"
#include "core/transport.h"

namespace dflp::core {

namespace {

constexpr std::uint8_t kYUpdate = 10;  // field[0] = raise count
constexpr std::uint8_t kCovered = 11;
constexpr std::uint8_t kOpenReq = 12;

/// The y grid both sides evaluate identically from the shared schedule.
double y_of_raises(const MwSchedule& sched, std::int64_t raises) {
  if (raises <= 0) return 0.0;
  if (raises >= sched.y_scale) return 1.0;
  return std::pow(sched.beta,
                  static_cast<double>(raises - sched.y_scale));
}

struct Shared {
  MwSchedule sched;
  MwParams params;
  std::uint64_t scheduled_rounds = 0;  // 2 * levels * subphases
  /// y_grid[s] = y_of_raises(sched, s) for s in [0, y_scale], filled once
  /// per run: every y a node reads is a lookup, not a std::pow.
  std::vector<double> y_grid;

  [[nodiscard]] double y(std::int64_t raises) const {
    return y_grid[static_cast<std::size_t>(
        std::clamp<std::int64_t>(raises, 0, sched.y_scale))];
  }
  /// The round a facility must step in after the raise rounds: base + 1
  /// serves mop-up requests, or base halts without mop-up.
  [[nodiscard]] std::uint64_t mopup_round() const {
    return scheduled_rounds + (params.mopup ? 1 : 0);
  }
};

std::uint64_t scheduled_rounds(const MwSchedule& sched) {
  return 2ULL * static_cast<std::uint64_t>(sched.levels) *
         static_cast<std::uint64_t>(sched.subphases);
}

class FacilityProc final : public net::Process {
 public:
  /// `edges` (cost-sorted) and `cost_index` (port -> index into `edges`)
  /// are borrowed from the instance and the run's EdgeTable.
  FacilityProc(const Shared* shared, double opening_cost,
               std::span<const fl::FacilityEdge> edges,
               std::span<const std::int32_t> cost_index)
      : shared_(shared), opening_cost_(opening_cost), edges_(edges),
        cost_index_(cost_index), covered_(edges.size(), 0),
        uncovered_count_(static_cast<int>(edges.size())) {}

  [[nodiscard]] std::int64_t raises() const noexcept { return raises_; }

  void on_round(net::NodeContext& ctx,
                std::span<const net::Message> inbox) override {
    const std::uint64_t r = ctx.round();
    for (const net::Message& msg : inbox) {
      if (msg.kind == kCovered) mark_covered(msg.port);
    }

    if (r < shared_->scheduled_rounds) {
      if (r % 2 == 0) {
        if (uncovered_count_ == 0) {
          ctx.halt();  // y final; mop-up requests only come from the uncovered
          return;
        }
        maybe_raise(ctx, r);
      }
      ctx.sleep_until(next_raise_round(r));
      return;
    }

    const std::uint64_t base = shared_->scheduled_rounds;
    if (!shared_->params.mopup || r >= base + 1) {
      bool requested = false;
      for (const net::Message& msg : inbox) {
        if (msg.kind == kOpenReq) requested = true;
      }
      if (requested && raises_ < shared_->sched.y_scale) {
        ctx.annotate("mopup-raise");
        raises_ = shared_->sched.y_scale;  // y = 1
        ctx.broadcast(kYUpdate, {raises_, 0, 0});
      }
      ctx.halt();
    }
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

  /// Best star ratio over the uncovered neighbours, cached: recomputed
  /// only after a COVERED notice or a raise changed its inputs.
  [[nodiscard]] double best_star_ratio() {
    if (!star_stale_) return star_ratio_;
    star_stale_ = false;
    // Once fully raised the facility cannot act anyway.
    double num = opening_cost_ * (1.0 - shared_->y(raises_));
    double best = std::numeric_limits<double>::infinity();
    int size = 0;
    for (std::size_t t = 0; t < edges_.size(); ++t) {
      if (covered_[t]) continue;
      num += edges_[t].cost;
      ++size;
      best = std::min(best, num / static_cast<double>(size));
    }
    star_ratio_ = size == 0 ? std::numeric_limits<double>::infinity() : best;
    return star_ratio_;
  }

  void maybe_raise(net::NodeContext& ctx, std::uint64_t r) {
    if (raises_ >= shared_->sched.y_scale) return;  // y == 1 already
    const auto iteration = r / 2;
    const auto level = static_cast<int>(
        iteration / static_cast<std::uint64_t>(shared_->sched.subphases));
    DFLP_CHECK(level < shared_->sched.levels);
    const double threshold =
        shared_->sched.thresholds[static_cast<std::size_t>(level)];
    if (!(best_star_ratio() <= threshold)) return;
    ctx.annotate("raise");
    ++raises_;
    star_stale_ = true;
    ctx.broadcast(kYUpdate, {raises_, 0, 0});
  }

  /// Wake rule: the first raise round after `r` whose rung admits the
  /// cached star, or the mop-up round for a facility that will not raise
  /// again. A COVERED notice wakes the facility in a raise round, where one
  /// left with no uncovered neighbour halts, so a sleeper always has one.
  [[nodiscard]] std::uint64_t next_raise_round(std::uint64_t r) {
    const std::uint64_t mopup = shared_->mopup_round();
    if (raises_ >= shared_->sched.y_scale) return mopup;
    return shared_->sched.first_admitting_round(2, r + 1, best_star_ratio(),
                                                mopup);
  }

  const Shared* shared_;
  double opening_cost_;
  std::span<const fl::FacilityEdge> edges_;   // cost-sorted
  std::span<const std::int32_t> cost_index_;  // port -> index into edges_
  std::vector<std::uint8_t> covered_;         // parallel to edges_
  int uncovered_count_ = 0;
  bool star_stale_ = true;  // star_ratio_ needs a rescan
  std::int64_t raises_ = 0;
  double star_ratio_ = 0.0;
};

class ClientProc final : public net::Process {
 public:
  /// `edges` (cost-sorted) and `cost_index` are borrowed, as for the
  /// facility.
  ClientProc(const Shared* shared, std::span<const fl::ClientEdge> edges,
             std::span<const std::int32_t> cost_index)
      : shared_(shared), edges_(edges), cost_index_(cost_index),
        known_raises_(edges.size(), 0) {}

  [[nodiscard]] bool covered() const noexcept { return covered_; }
  [[nodiscard]] bool covered_by_mopup() const noexcept { return by_mopup_; }

  /// Local x allocation over this client's edges (edge order = cost
  /// order), written into `x` (zero-filled, one entry per edge):
  /// x_ij = min(known y_i, residual). Known y never exceeds the facility's
  /// true final y, so the allocation is feasible against it.
  void allocate_x(std::span<double> x) const {
    double residual = 1.0;
    for (std::size_t t = 0; t < edges_.size() && residual > 0.0; ++t) {
      const double yv = shared_->y(known_raises_[t]);
      const double take = std::min(yv, residual);
      x[t] = take;
      residual -= take;
    }
  }

  void on_round(net::NodeContext& ctx,
                std::span<const net::Message> inbox) override {
    const std::uint64_t r = ctx.round();
    for (const net::Message& msg : inbox) {
      if (msg.kind == kYUpdate) {
        std::int64_t& known = known_raises_[static_cast<std::size_t>(
            cost_index_[static_cast<std::size_t>(msg.port)])];
        if (msg.field[0] > known) {
          known = msg.field[0];
          mass_stale_ = true;
        }
      }
    }

    if (r < shared_->scheduled_rounds) {
      if (r % 2 == 1 && !covered_) maybe_cover(ctx);
      // Y_UPDATEs land in cover rounds (raises happen in the rounds before
      // them) and wake the client; until one does, a cover round finds the
      // same mass.
      ctx.sleep_until(shared_->scheduled_rounds);
      return;
    }

    const std::uint64_t base = shared_->scheduled_rounds;
    if (!shared_->params.mopup) {
      ctx.halt();
      return;
    }
    if (r == base) {
      if (!covered_) {
        ctx.annotate("mopup-request");
        ctx.send(facility_node(edges_.front().facility),
                 kOpenReq);  // cheapest facility
        by_mopup_ = true;
        ctx.sleep_until(base + 2);  // the raise lands then
      } else {
        ctx.halt();
      }
      return;
    }
    if (r == base + 1) return;  // y update in flight
    // base+2: the mop-up facility raised to y=1; coverage must now hold.
    if (!covered_) maybe_cover(ctx);
    DFLP_CHECK_MSG(covered_, "client node " << ctx.self()
                                            << " uncovered after mop-up");
    ctx.halt();
  }

 private:
  void maybe_cover(net::NodeContext& ctx) {
    if (mass_stale_) {
      // Re-summed in edge order only after a Y_UPDATE raised a known count.
      mass_stale_ = false;
      mass_ = 0.0;
      for (std::size_t t = 0; t < edges_.size(); ++t)
        mass_ += shared_->y(known_raises_[t]);
    }
    if (mass_ >= 1.0 - 1e-12) {
      ctx.annotate("covered");
      covered_ = true;
      ctx.broadcast(kCovered);
    }
  }

  const Shared* shared_;
  std::span<const fl::ClientEdge> edges_;     // cost-sorted
  std::span<const std::int32_t> cost_index_;  // port -> index into edges_
  std::vector<std::int64_t> known_raises_;    // parallel to edges_
  double mass_ = 0.0;  // sum of known y (all 0 at first), valid unless stale
  bool mass_stale_ = false;
  bool covered_ = false;
  bool by_mopup_ = false;
};

}  // namespace

net::Network::Options frac_lp_options(const MwSchedule& schedule,
                                      const MwParams& params) {
  net::Network::Options options;
  options.bit_budget = schedule.bit_budget;
  options.seed = params.seed;
  options.delivery = params.delivery;
  apply_transport_options(options, params, scheduled_rounds(schedule) + 8);
  return options;
}

FracOutcome run_frac_lp(net::Network& net, const EdgeTable& table,
                        const fl::Instance& inst, const MwSchedule& schedule,
                        const MwParams& params) {
  Shared shared;
  shared.sched = schedule;
  shared.params = params;
  shared.scheduled_rounds = scheduled_rounds(schedule);
  shared.y_grid.resize(static_cast<std::size_t>(schedule.y_scale) + 1);
  for (std::int64_t s = 0; s <= schedule.y_scale; ++s)
    shared.y_grid[static_cast<std::size_t>(s)] = y_of_raises(schedule, s);
  const std::uint64_t logical_bound = shared.scheduled_rounds + 8;
  if (params.tracer != nullptr) params.tracer->set_section("frac-lp");

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

  return with_fault_context(net, [&] {
    FracOutcome outcome(inst);
    outcome.metrics = net.run(transport_max_rounds(params, logical_bound));
    outcome.schedule = shared.sched;

    for (fl::FacilityId i = 0; i < inst.num_facilities(); ++i) {
      const auto& proc =
          transport_inner<FacilityProc>(net, params, facility_node(i));
      outcome.fractional.y[static_cast<std::size_t>(i)] =
          shared.y(proc.raises());
    }
    for (fl::ClientId j = 0; j < inst.num_clients(); ++j) {
      const auto& proc =
          transport_inner<ClientProc>(net, params, client_node(inst, j));
      proc.allocate_x(std::span<double>(outcome.fractional.x)
                          .subspan(inst.client_edge_offset(j),
                                   inst.client_edges(j).size()));
      if (proc.covered_by_mopup()) ++outcome.mopup_clients;
    }
    outcome.transport = collect_transport_stats(net, params);
    if (params.mopup) {
      std::string why;
      DFLP_CHECK_MSG(outcome.fractional.is_feasible(inst, 1e-7, &why),
                     "fractional stage with mop-up must be feasible: " << why);
    }
    return outcome;
  });
}

FracOutcome run_frac_lp(const fl::Instance& inst, const MwParams& params) {
  const MwSchedule schedule = derive_schedule(inst, params);
  EdgeTable table;
  net::Network net =
      make_bipartite_network(inst, frac_lp_options(schedule, params), table);
  return run_frac_lp(net, table, inst, schedule, params);
}

}  // namespace dflp::core
