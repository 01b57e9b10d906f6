#include "core/clique_fl.h"

#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "common/check.h"
#include "core/bipartite.h"
#include "core/quantize.h"
#include "netsim/trace.h"
#include "seq/mettu_plaxton.h"

namespace dflp::core {

namespace {

// Protocol opcodes. CANDIDATE and OPEN carry the sender's radius code so
// receivers can evaluate the conflict predicate; RETIRE is payload-free.
constexpr std::uint8_t kCandidate = 1;
constexpr std::uint8_t kOpen = 2;
constexpr std::uint8_t kRetire = 3;

// Hard stop for the protocol, which always terminates without loss: a run
// that reaches it has stalled, and throws naming the undecided nodes.
// Stalled nodes sleep, so a lossy run reaches it in milliseconds.
constexpr std::uint64_t kMaxRounds = 10000;

// Facility–facility distances: O(1) from generator sites when available,
// otherwise the precomputed bipartite closure row.
struct FacilityDistances {
  std::vector<fl::MetricPoint> sites;  // size m, preferred when non-empty
  std::vector<double> closure;         // m*m fallback
  std::size_t m = 0;

  [[nodiscard]] double operator()(fl::FacilityId a, fl::FacilityId b) const {
    if (!sites.empty())
      return fl::metric_distance(sites[static_cast<std::size_t>(a)],
                                 sites[static_cast<std::size_t>(b)]);
    return closure[static_cast<std::size_t>(a) * m +
                   static_cast<std::size_t>(b)];
  }
};

// Conflict radius multiplier: i ~ i' iff d(i,i') <= kConflictFactor *
// min(r_i, r_i').
constexpr double kConflictFactor = 2.0;

// Immutable data every process shares (the "common knowledge" of the
// model: instance shape, codec, the metric side channel).
struct Shared {
  std::int32_t m = 0;
  std::int32_t n = 0;
  CostCodec codec;
  FacilityDistances dist;
};

// One collected nominee, folded order-insensitively by (code, id) key.
struct Nominee {
  std::int64_t code = 0;
  net::NodeId src = net::kNoNode;
};

class FacilityProcess final : public net::Process {
 public:
  FacilityProcess(std::shared_ptr<const Shared> shared, fl::FacilityId id,
                  double radius)
      : shared_(std::move(shared)),
        id_(id),
        code_(shared_->codec.encode(radius)),
        radius_(shared_->codec.decode(code_)) {}

  [[nodiscard]] bool opened() const noexcept { return state_ == State::kOpen; }
  [[nodiscard]] bool decided() const noexcept { return state_ != State::kActive; }
  [[nodiscard]] std::uint64_t decided_iteration() const noexcept {
    return decided_iteration_;
  }

  void on_round(net::NodeContext& ctx,
                std::span<const net::Message> inbox) override {
    const std::uint64_t t = ctx.round() / 2;
    if ((ctx.round() & 1) == 0) {
      // Even rounds: fold the OPEN announcements of iteration t-1, retire
      // on conflict, otherwise flip this iteration's sampling coin. The
      // coin is drawn iff the facility is still active, so the number of
      // draws from the per-node stream is delivery-order independent.
      for (const net::Message& msg : inbox) {
        if (msg.kind != kOpen) continue;
        if (conflicts(msg.src, msg.field[0])) {
          state_ = State::kRetired;
          decided_iteration_ = t;
          ctx.broadcast(kRetire);
          ctx.halt();
          return;
        }
      }
      nominated_ = ctx.rng().bernoulli(sample_probability(t));
      if (nominated_) ctx.broadcast(kCandidate, {code_, 0, 0});
      return;
    }
    if (!nominated_) return;
    // Odd rounds: resolve the nominees. A nominee opens iff it holds the
    // minimal (radius code, id) key among the conflicting nominees — a
    // pure fold over the inbox set, insensitive to delivery order and to
    // duplicated copies.
    bool wins = true;
    for (const net::Message& msg : inbox) {
      if (msg.kind != kCandidate) continue;
      if (!conflicts(msg.src, msg.field[0])) continue;
      if (std::pair(msg.field[0], msg.src) < std::pair(code_, self_node())) {
        wins = false;
        break;
      }
    }
    nominated_ = false;
    if (!wins) return;
    state_ = State::kOpen;
    decided_iteration_ = t + 1;
    ctx.broadcast(kOpen, {code_, 0, 0});
    ctx.halt();
  }

 private:
  enum class State : std::uint8_t { kActive, kOpen, kRetired };

  [[nodiscard]] net::NodeId self_node() const noexcept {
    return facility_node(id_);
  }

  // i ~ i' iff d(i,i') <= kConflictFactor * min(r_i, r_i'), all radii
  // quantized through the shared codec so both endpoints agree exactly.
  [[nodiscard]] bool conflicts(net::NodeId other,
                               std::int64_t other_code) const {
    const Shared& s = *shared_;
    const double other_radius = s.codec.decode(other_code);
    const double reach = kConflictFactor * std::min(radius_, other_radius);
    return s.dist(id_, node_to_facility(other)) <= reach;
  }

  // p_t = min(1, 2^(2^t) / m): the BHP doubly-exponential schedule, which
  // hits 1 after ~log2 log2 m iterations.
  [[nodiscard]] double sample_probability(std::uint64_t t) const {
    if (t >= 6) return 1.0;  // 2^64 dwarfs any representable m
    const std::uint64_t exponent = std::uint64_t{1} << t;
    if (exponent >= 63) return 1.0;
    const double mass = std::ldexp(1.0, static_cast<int>(exponent));
    return std::min(1.0, mass / static_cast<double>(shared_->m));
  }

  std::shared_ptr<const Shared> shared_;
  fl::FacilityId id_;
  std::int64_t code_ = 0;
  double radius_ = 0.0;
  State state_ = State::kActive;
  bool nominated_ = false;
  std::uint64_t decided_iteration_ = 0;
};

class ClientProcess final : public net::Process {
 public:
  /// `edges` is the client's cost-sorted instance slice, borrowed.
  ClientProcess(std::shared_ptr<const Shared> shared, fl::ClientId id,
                std::span<const fl::ClientEdge> edges)
      : shared_(std::move(shared)),
        id_(id),
        edges_(edges),
        decision_(static_cast<std::size_t>(shared_->m), 0) {}

  [[nodiscard]] fl::FacilityId assignment() const noexcept {
    return assignment_;
  }

  void on_round(net::NodeContext& ctx,
                std::span<const net::Message> inbox) override {
    // Fold every facility's single OPEN/RETIRE announcement into a decision
    // table; the transition guard makes duplicated copies harmless.
    for (const net::Message& msg : inbox) {
      if (msg.kind != kOpen && msg.kind != kRetire) continue;
      auto& cell = decision_[static_cast<std::size_t>(
          node_to_facility(msg.src))];
      if (cell != 0) continue;
      cell = msg.kind == kOpen ? 1 : 2;
      ++decided_;
    }
    if (decided_ < shared_->m) return;
    // Every facility has decided: connect to the cheapest open one. edges_
    // is sorted by (cost, facility id), so the first open hit is canonical.
    for (const fl::ClientEdge& e : edges_) {
      if (decision_[static_cast<std::size_t>(e.facility)] == 1) {
        assignment_ = e.facility;
        break;
      }
    }
    DFLP_CHECK_MSG(assignment_ != fl::kNoFacility,
                   "clique-fl: client " << id_
                                        << " has no open adjacent facility");
    ctx.halt();
  }

 private:
  std::shared_ptr<const Shared> shared_;
  fl::ClientId id_;
  std::span<const fl::ClientEdge> edges_;
  std::vector<std::uint8_t> decision_;  ///< 0 unknown, 1 open, 2 retired
  std::int32_t decided_ = 0;
  fl::FacilityId assignment_ = fl::kNoFacility;
};

CliqueFlOutcome run_impl(const fl::Instance& inst, FacilityDistances dist,
                         const CliqueFlParams& params) {
  const std::int32_t m = inst.num_facilities();
  const std::int32_t n = inst.num_clients();
  for (fl::ClientId j = 0; j < n; ++j) {
    DFLP_CHECK_MSG(
        static_cast<std::int32_t>(inst.client_edges(j).size()) == m,
        "clique-fl needs a complete bipartite (metric) instance; client "
            << j << " reaches " << inst.client_edges(j).size() << " of " << m
            << " facilities");
  }

  auto shared = std::make_shared<Shared>();
  shared->m = m;
  shared->n = n;
  const fl::CostProfile& profile = inst.cost_profile();
  const double anchor =
      std::isfinite(profile.min_positive) ? profile.min_positive : 1.0;
  shared->codec = CostCodec(anchor, 0.25);
  dist.m = static_cast<std::size_t>(m);
  shared->dist = std::move(dist);

  const std::size_t num_nodes = static_cast<std::size_t>(m + n);
  net::Network::Options options;
  options.bit_budget = net::congest_bit_budget(num_nodes);
  options.seed = params.seed;
  options.delivery = params.delivery;
  options.faults = params.faults;
  options.tracer = params.tracer;
  if (params.tracer != nullptr) params.tracer->set_section("clique-fl");
  net::Network net = net::Network::clique(num_nodes, options);

  std::vector<FacilityProcess*> facilities;
  facilities.reserve(static_cast<std::size_t>(m));
  for (fl::FacilityId i = 0; i < m; ++i) {
    auto proc = std::make_unique<FacilityProcess>(shared, i,
                                                  seq::mp_radius(inst, i));
    facilities.push_back(proc.get());
    net.set_process(facility_node(i), std::move(proc));
  }
  std::vector<ClientProcess*> clients;
  clients.reserve(static_cast<std::size_t>(n));
  for (fl::ClientId j = 0; j < n; ++j) {
    auto proc = std::make_unique<ClientProcess>(shared, j,
                                                inst.client_edges(j));
    clients.push_back(proc.get());
    net.set_process(client_node(inst, j), std::move(proc));
  }

  CliqueFlOutcome out;
  out.metrics = net.run(kMaxRounds);
  DFLP_CHECK_MSG(net.all_halted(),
                 "clique-fl stalled: " << net.live_node_count()
                                       << " nodes still undecided after "
                                       << out.metrics.rounds
                                       << " rounds (message loss?)");

  out.solution = fl::IntegralSolution(inst);
  for (fl::FacilityId i = 0; i < m; ++i) {
    const FacilityProcess& f = *facilities[static_cast<std::size_t>(i)];
    out.iterations = std::max(out.iterations, f.decided_iteration());
    if (f.opened()) out.solution.open(i);
  }
  for (fl::ClientId j = 0; j < n; ++j)
    out.solution.assign(j, clients[static_cast<std::size_t>(j)]->assignment());
  out.solution.prune_unused(inst);
  out.open_facilities = out.solution.num_open();
  std::string why;
  DFLP_CHECK_MSG(out.solution.is_feasible(inst, &why),
                 "clique-fl produced an infeasible solution: " << why);
  return out;
}

}  // namespace

CliqueFlOutcome run_clique_fl(const fl::MetricInstance& minst,
                              const CliqueFlParams& params) {
  FacilityDistances dist;
  dist.sites = minst.facility_pos;
  DFLP_CHECK_MSG(dist.sites.size() ==
                     static_cast<std::size_t>(minst.instance.num_facilities()),
                 "MetricInstance facility sites out of sync: "
                     << dist.sites.size() << " sites for "
                     << minst.instance.num_facilities() << " facilities");
  return run_impl(minst.instance, std::move(dist), params);
}

CliqueFlOutcome run_clique_fl(const fl::Instance& inst,
                              const CliqueFlParams& params) {
  FacilityDistances dist;
  dist.closure = fl::facility_metric_closure(inst);
  return run_impl(inst, std::move(dist), params);
}

}  // namespace dflp::core
