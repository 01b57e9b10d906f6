#include "service/streaming_solver.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/check.h"
#include "common/rng.h"
#include "core/mw_greedy.h"
#include "core/pipeline.h"

namespace dflp::service {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Union-find with path halving + union by size; nodes are the bipartite
/// layout's dense ids (facility i -> i, client j -> m + j).
class Dsu {
 public:
  explicit Dsu(std::size_t size) : parent_(size), size_(size, 1) {
    for (std::size_t v = 0; v < size; ++v)
      parent_[v] = static_cast<std::int32_t>(v);
  }

  std::int32_t find(std::int32_t v) {
    while (parent_[static_cast<std::size_t>(v)] != v) {
      parent_[static_cast<std::size_t>(v)] =
          parent_[static_cast<std::size_t>(
              parent_[static_cast<std::size_t>(v)])];
      v = parent_[static_cast<std::size_t>(v)];
    }
    return v;
  }

  void merge(std::int32_t a, std::int32_t b) {
    a = find(a);
    b = find(b);
    if (a == b) return;
    if (size_[static_cast<std::size_t>(a)] <
        size_[static_cast<std::size_t>(b)])
      std::swap(a, b);
    parent_[static_cast<std::size_t>(b)] = a;
    size_[static_cast<std::size_t>(a)] +=
        size_[static_cast<std::size_t>(b)];
  }

 private:
  std::vector<std::int32_t> parent_;
  std::vector<std::int32_t> size_;
};

std::uint64_t chain(std::uint64_t h, std::uint64_t v) {
  return mix64(h ^ (v * 0x9E3779B97F4A7C15ULL + 0x7F4A7C15ULL));
}

/// Per-component seed tag; keeps component streams disjoint from every
/// other derived stream in the codebase.
constexpr std::uint64_t kComponentSeedTag = 0x57AEA41C0FFEEULL;

}  // namespace

core::InstanceBounds stream_bounds(const workload::StreamParams& params,
                                   std::int64_t max_events) {
  DFLP_CHECK(max_events >= 0);
  core::InstanceBounds b;
  b.max_facilities = params.num_cells * params.facilities_per_cell;
  const std::int64_t max_clients = params.initial_clients + max_events;
  b.max_network_nodes =
      static_cast<std::int32_t>(b.max_facilities + max_clients);
  b.min_positive_cost = std::min(params.opening_lo, params.connection_lo);
  b.max_cost = std::max(params.opening_hi, params.connection_hi);
  // A cell facility can in principle serve every client ever alive.
  b.max_facility_degree = static_cast<int>(max_clients);
  return b;
}

std::string engine_name(SolveEngine engine) {
  switch (engine) {
    case SolveEngine::kMwGreedy:
      return "mw-greedy";
    case SolveEngine::kPipeline:
      return "mw-pipeline";
  }
  return "unknown";
}

StreamingSolver::StreamingSolver(fl::InstanceSnapshot initial,
                                 StreamingOptions options)
    : options_(std::move(options)), snapshot_(std::move(initial)) {
  DFLP_CHECK_MSG(options_.params.pinned_schedule == nullptr,
                 "StreamingOptions::params.pinned_schedule is managed by "
                 "the service; leave it null");
  DFLP_CHECK_MSG(options_.params.mopup,
                 "the streaming service requires mopup (it asserts every "
                 "epoch's solution is feasible)");
  schedule_ = core::derive_schedule_from_bounds(options_.bounds,
                                                options_.params);
  last_report_ = resolve(/*events=*/0, /*apply_ms=*/0.0, {}, {});
}

EpochReport StreamingSolver::commit_epoch() {
  const auto start = Clock::now();
  std::unordered_set<fl::NodeKey> touched_f;
  std::unordered_set<fl::NodeKey> touched_c;
  for (const fl::Delta& d : pending_.deltas()) {
    switch (d.kind) {
      case fl::Delta::Kind::kClientArrive:
        touched_c.insert(d.client);
        for (const fl::KeyedEdge& e : d.edges) touched_f.insert(e.peer);
        break;
      case fl::Delta::Kind::kClientDepart:
        touched_c.insert(d.client);
        break;
      case fl::Delta::Kind::kFacilityOpen:
        touched_f.insert(d.facility);
        for (const fl::KeyedEdge& e : d.edges) touched_c.insert(e.peer);
        break;
      case fl::Delta::Kind::kFacilityClose:
        touched_f.insert(d.facility);
        break;
      case fl::Delta::Kind::kEdgeCostChange:
        touched_f.insert(d.facility);
        touched_c.insert(d.client);
        break;
    }
  }
  const std::size_t events = pending_.size();
  snapshot_ = fl::apply(snapshot_, pending_);
  pending_.clear();
  const double apply_ms = ms_since(start);

  EpochReport report = resolve(events, apply_ms, touched_f, touched_c);
  report.total_ms = ms_since(start);
  last_report_ = report;
  return report;
}

StreamingSolver::ComponentEntry StreamingSolver::solve_component(
    const Component& comp, std::uint64_t fingerprint) const {
  ComponentEntry entry;
  entry.fingerprint = fingerprint;
  if (comp.clients.empty()) return entry;  // facility-only: stays closed

  const fl::Instance& inst = snapshot_.instance();
  fl::InstanceBuilder builder;
  std::size_t edges = 0;
  for (fl::FacilityId i : comp.facilities)
    edges += inst.facility_edges(i).size();
  builder.reserve(static_cast<std::int32_t>(comp.facilities.size()),
                  static_cast<std::int32_t>(comp.clients.size()), edges);
  std::unordered_map<fl::ClientId, std::int32_t> local_client;
  local_client.reserve(comp.clients.size());
  for (std::size_t t = 0; t < comp.clients.size(); ++t)
    local_client.emplace(comp.clients[t], static_cast<std::int32_t>(t));
  for (fl::FacilityId i : comp.facilities)
    (void)builder.add_facility(inst.opening_cost(i));
  for (std::size_t t = 0; t < comp.clients.size(); ++t)
    (void)builder.add_client();
  for (std::size_t fi = 0; fi < comp.facilities.size(); ++fi) {
    for (const fl::FacilityEdge& e :
         inst.facility_edges(comp.facilities[fi])) {
      builder.connect(static_cast<std::int32_t>(fi),
                      local_client.at(e.client), e.cost);
    }
  }
  const fl::Instance sub = builder.build();

  core::MwParams params = options_.params;
  params.pinned_schedule = &schedule_;
  params.tracer = nullptr;
  params.trace_path.clear();
  params.seed = derive_stream_seed(options_.params.seed,
                                   static_cast<std::uint64_t>(comp.key),
                                   kComponentSeedTag);

  fl::IntegralSolution sub_solution;
  switch (options_.engine) {
    case SolveEngine::kMwGreedy: {
      core::MwGreedyOutcome out = core::run_mw_greedy(sub, params);
      sub_solution = std::move(out.solution);
      entry.rounds = out.metrics.rounds;
      entry.messages = out.metrics.messages;
      break;
    }
    case SolveEngine::kPipeline: {
      core::PipelineOutcome out = core::run_pipeline(sub, params);
      sub_solution = std::move(out.solution);
      entry.fractional_value = out.fractional_value;
      entry.frac_y = std::move(out.frac_y);
      entry.rounds = out.total_rounds();
      entry.messages = out.total_messages();
      break;
    }
  }

  for (std::size_t fi = 0; fi < comp.facilities.size(); ++fi) {
    if (sub_solution.is_open(static_cast<std::int32_t>(fi)))
      entry.open_facilities.push_back(
          snapshot_.facility_key(comp.facilities[fi]));
  }
  entry.assignment.reserve(comp.clients.size());
  for (std::size_t t = 0; t < comp.clients.size(); ++t) {
    const fl::FacilityId local =
        sub_solution.assignment(static_cast<std::int32_t>(t));
    DFLP_CHECK_MSG(local != fl::kNoFacility,
                   "component solve left a client unassigned");
    entry.assignment.emplace_back(
        snapshot_.client_key(comp.clients[t]),
        snapshot_.facility_key(
            comp.facilities[static_cast<std::size_t>(local)]));
  }
  return entry;
}

EpochReport StreamingSolver::resolve(
    std::size_t events, double apply_ms,
    const std::unordered_set<fl::NodeKey>& touched_f,
    const std::unordered_set<fl::NodeKey>& touched_c) {
  const auto start = Clock::now();
  const fl::Instance& inst = snapshot_.instance();
  const auto m = inst.num_facilities();
  const auto n = inst.num_clients();

  DFLP_CHECK_MSG(
      options_.bounds.dominates(core::InstanceBounds::of(inst)),
      "epoch " << snapshot_.epoch()
               << " outgrew the declared capacity bounds the schedule was "
                  "pinned from ("
               << inst.describe() << ")");

  // ---- Partition into connectivity components. -------------------------
  Dsu dsu(static_cast<std::size_t>(m + n));
  for (fl::FacilityId i = 0; i < m; ++i) {
    for (const fl::FacilityEdge& e : inst.facility_edges(i))
      dsu.merge(i, m + e.client);
  }
  std::vector<Component> comps;
  std::unordered_map<std::int32_t, std::size_t> comp_of_root;
  comp_of_root.reserve(static_cast<std::size_t>(m));
  // Facilities in dense (= ascending-key) order: the first facility seen
  // for a root is the component's minimum key, and `comps` ends up sorted
  // by key — which keeps every downstream accumulation order-deterministic.
  for (fl::FacilityId i = 0; i < m; ++i) {
    const std::int32_t root = dsu.find(i);
    auto [it, fresh] = comp_of_root.emplace(root, comps.size());
    if (fresh) {
      comps.emplace_back();
      comps.back().key = snapshot_.facility_key(i);
    }
    comps[it->second].facilities.push_back(i);
  }
  for (fl::ClientId j = 0; j < n; ++j) {
    const std::int32_t root = dsu.find(m + j);
    const auto it = comp_of_root.find(root);
    DFLP_CHECK_MSG(it != comp_of_root.end(),
                   "client " << j << " has no facility in its component");
    comps[it->second].clients.push_back(j);
  }

  EpochReport report;
  report.epoch = snapshot_.epoch();
  report.events = events;
  report.apply_ms = apply_ms;
  report.num_facilities = m;
  report.num_clients = n;
  report.components = static_cast<std::int64_t>(comps.size());

  // ---- Solve dirty components, reuse clean ones. -----------------------
  std::unordered_map<fl::NodeKey, ComponentEntry> next_cache;
  next_cache.reserve(comps.size());
  fl::IntegralSolution solution(inst);
  for (const Component& comp : comps) {
    std::uint64_t fp = 0xD17F;
    for (fl::FacilityId i : comp.facilities)
      fp = chain(fp, static_cast<std::uint64_t>(snapshot_.facility_key(i)));
    fp = chain(fp, 0xC11E57);  // side separator
    for (fl::ClientId j : comp.clients)
      fp = chain(fp, static_cast<std::uint64_t>(snapshot_.client_key(j)));

    bool reusable = options_.warm_start;
    if (reusable) {
      const auto it = cache_.find(comp.key);
      reusable = it != cache_.end() && it->second.fingerprint == fp;
    }
    if (reusable) {
      for (fl::FacilityId i : comp.facilities) {
        if (touched_f.count(snapshot_.facility_key(i)) != 0) {
          reusable = false;
          break;
        }
      }
    }
    if (reusable) {
      for (fl::ClientId j : comp.clients) {
        if (touched_c.count(snapshot_.client_key(j)) != 0) {
          reusable = false;
          break;
        }
      }
    }

    ComponentEntry entry;
    if (reusable) {
      entry = std::move(cache_.at(comp.key));
      ++report.reused_components;
    } else {
      entry = solve_component(comp, fp);
      ++report.solved_components;
      report.rounds = std::max(report.rounds, entry.rounds);
      report.messages += entry.messages;
    }
    report.fractional_value += entry.fractional_value;

    for (fl::NodeKey fkey : entry.open_facilities) {
      const fl::FacilityId i = snapshot_.facility_index(fkey);
      DFLP_CHECK(i != -1);
      solution.open(i);
    }
    for (const auto& [ckey, fkey] : entry.assignment) {
      const fl::ClientId j = snapshot_.client_index(ckey);
      const fl::FacilityId i = snapshot_.facility_index(fkey);
      DFLP_CHECK(j != -1 && i != -1);
      solution.assign(j, i);
    }
    next_cache.emplace(comp.key, std::move(entry));
  }
  cache_ = std::move(next_cache);

  std::string why;
  DFLP_CHECK_MSG(solution.is_feasible(inst, &why),
                 "epoch " << snapshot_.epoch()
                          << " assembled an infeasible solution: " << why);
  report.cost = solution.cost(inst);

  // ---- Recourse vs the previous epoch, in key space. -------------------
  std::vector<fl::NodeKey> open_keys;
  for (fl::FacilityId i = 0; i < m; ++i) {
    if (solution.is_open(i)) open_keys.push_back(snapshot_.facility_key(i));
  }
  {
    std::vector<fl::NodeKey> diff;
    std::set_difference(open_keys.begin(), open_keys.end(),
                        prev_open_keys_.begin(), prev_open_keys_.end(),
                        std::back_inserter(diff));
    report.recourse.facilities_opened =
        static_cast<std::int64_t>(diff.size());
    diff.clear();
    std::set_difference(prev_open_keys_.begin(), prev_open_keys_.end(),
                        open_keys.begin(), open_keys.end(),
                        std::back_inserter(diff));
    report.recourse.facilities_closed =
        static_cast<std::int64_t>(diff.size());
  }
  std::unordered_map<fl::NodeKey, fl::NodeKey> assignment;
  assignment.reserve(static_cast<std::size_t>(n));
  std::int64_t common = 0;
  for (fl::ClientId j = 0; j < n; ++j) {
    const fl::NodeKey ckey = snapshot_.client_key(j);
    const fl::NodeKey fkey =
        snapshot_.facility_key(solution.assignment(j));
    assignment.emplace(ckey, fkey);
    const auto it = prev_assignment_.find(ckey);
    if (it == prev_assignment_.end()) continue;
    ++common;
    if (it->second != fkey) ++report.recourse.clients_reassigned;
  }
  report.recourse.clients_arrived = static_cast<std::int64_t>(n) - common;
  report.recourse.clients_departed =
      static_cast<std::int64_t>(prev_assignment_.size()) - common;

  prev_open_keys_ = std::move(open_keys);
  prev_assignment_ = std::move(assignment);
  solution_ = std::move(solution);

  report.solve_ms = ms_since(start);
  report.total_ms = report.apply_ms + report.solve_ms;
  return report;
}

}  // namespace dflp::service
