#include "service/streaming_solver.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>
#include <numeric>
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

/// Old dense id of each client of the new snapshot, from one merge of the
/// two snapshots' sorted key vectors; -1 marks an arrival.
struct ClientMap {
  std::vector<std::int32_t> new_to_old;
  std::int64_t survivors = 0;
};

ClientMap match_keys(const std::vector<fl::NodeKey>& old_keys,
                     const std::vector<fl::NodeKey>& new_keys) {
  ClientMap map;
  map.new_to_old.assign(new_keys.size(), -1);
  std::size_t a = 0;
  std::size_t b = 0;
  while (a < old_keys.size() && b < new_keys.size()) {
    if (old_keys[a] < new_keys[b]) {
      ++a;
    } else if (new_keys[b] < old_keys[a]) {
      ++b;
    } else {
      map.new_to_old[b] = static_cast<std::int32_t>(a);
      ++map.survivors;
      ++a;
      ++b;
    }
  }
  return map;
}

/// Per-component seed tag; keeps component streams disjoint from every
/// other derived stream in the codebase.
constexpr std::uint64_t kComponentSeedTag = 0x57AEA41C0FFEEULL;

}  // namespace

core::InstanceBounds stream_bounds(const workload::StreamParams& params,
                                   std::int64_t max_events) {
  DFLP_CHECK(max_events >= 0);
  constexpr std::int64_t kNodeLimit = std::numeric_limits<std::int32_t>::max();
  const std::int64_t facilities =
      std::int64_t{params.num_cells} * params.facilities_per_cell;
  DFLP_CHECK_MSG(facilities <= kNodeLimit,
                 "stream bounds: num_cells * facilities_per_cell = "
                     << facilities << " exceeds the int32 node limit "
                     << kNodeLimit);
  DFLP_CHECK_MSG(max_events <= kNodeLimit - facilities - params.initial_clients,
                 "stream bounds: max_events = "
                     << max_events << " takes " << facilities
                     << " facilities + " << params.initial_clients
                     << " initial clients past the int32 node limit "
                     << kNodeLimit);
  const std::int64_t max_clients = params.initial_clients + max_events;
  core::InstanceBounds b;
  b.max_facilities = static_cast<std::int32_t>(facilities);
  b.max_network_nodes = static_cast<std::int32_t>(facilities + max_clients);
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
    : options_(std::move(options)) {
  DFLP_CHECK_MSG(options_.params.pinned_schedule == nullptr,
                 "StreamingOptions::params.pinned_schedule is managed by "
                 "the service; leave it null");
  DFLP_CHECK_MSG(options_.params.mopup,
                 "the streaming service requires mopup (it asserts every "
                 "epoch's solution is feasible)");
  schedule_ = core::derive_schedule_from_bounds(options_.bounds,
                                                options_.params);
  // The service starts from an empty epoch, so every node of the initial
  // snapshot is new.
  last_report_ = resolve(std::move(initial), fl::DeltaLog{},
                         /*all_dirty=*/true);
}

EpochReport StreamingSolver::commit_epoch() {
  const auto start = Clock::now();
  // The batch is consumed whether or not the commit succeeds, so a bad
  // batch cannot fail every later commit.
  struct ClearOnExit {
    fl::DeltaLog& log;
    ~ClearOnExit() { log.clear(); }
  } consume{pending_};
  fl::InstanceSnapshot next = fl::apply(snapshot_, pending_);
  const double apply_ms = ms_since(start);

  EpochReport report =
      resolve(std::move(next), pending_, /*all_dirty=*/!options_.warm_start);
  report.apply_ms = apply_ms;
  report.total_ms = ms_since(start);
  last_report_ = report;
  return report;
}

StreamingSolver::SolveResult StreamingSolver::solve_component(
    const fl::InstanceSnapshot& snap, const Component& comp,
    std::vector<std::int32_t>& local_client,
    fl::IntegralSolution& solution) const {
  SolveResult result;
  if (comp.clients.empty()) return result;  // facility-only: stays closed

  const fl::Instance& inst = snap.instance();
  fl::InstanceBuilder builder;
  std::size_t edges = 0;
  for (fl::FacilityId i : comp.facilities)
    edges += inst.facility_edges(i).size();
  builder.reserve(static_cast<std::int32_t>(comp.facilities.size()),
                  static_cast<std::int32_t>(comp.clients.size()), edges);
  for (std::size_t t = 0; t < comp.clients.size(); ++t)
    local_client[static_cast<std::size_t>(comp.clients[t])] =
        static_cast<std::int32_t>(t);
  for (fl::FacilityId i : comp.facilities)
    (void)builder.add_facility(inst.opening_cost(i));
  for (std::size_t t = 0; t < comp.clients.size(); ++t)
    (void)builder.add_client();
  for (std::size_t fi = 0; fi < comp.facilities.size(); ++fi) {
    for (const fl::FacilityEdge& e :
         inst.facility_edges(comp.facilities[fi])) {
      builder.connect(static_cast<std::int32_t>(fi),
                      local_client[static_cast<std::size_t>(e.client)],
                      e.cost);
    }
  }
  const fl::Instance sub = builder.build();

  core::MwParams params = options_.params;
  params.pinned_schedule = &schedule_;
  params.tracer = nullptr;
  params.seed = derive_stream_seed(
      options_.params.seed,
      static_cast<std::uint64_t>(comp.facilities.front()),
      kComponentSeedTag);

  fl::IntegralSolution sub_solution;
  switch (options_.engine) {
    case SolveEngine::kMwGreedy: {
      core::MwGreedyOutcome out = core::run_mw_greedy(sub, params);
      sub_solution = std::move(out.solution);
      result.rounds = out.metrics.rounds;
      result.messages = out.metrics.messages;
      break;
    }
    case SolveEngine::kPipeline: {
      core::PipelineOutcome out = core::run_pipeline(sub, params);
      sub_solution = std::move(out.solution);
      result.fractional_value = out.fractional_value;
      result.rounds = out.total_rounds();
      result.messages = out.total_messages();
      break;
    }
  }

  for (std::size_t fi = 0; fi < comp.facilities.size(); ++fi) {
    if (sub_solution.is_open(static_cast<std::int32_t>(fi)))
      solution.open(comp.facilities[fi]);
  }
  for (std::size_t t = 0; t < comp.clients.size(); ++t) {
    const fl::FacilityId local =
        sub_solution.assignment(static_cast<std::int32_t>(t));
    DFLP_CHECK_MSG(local != fl::kNoFacility,
                   "component solve left a client unassigned");
    solution.assign(comp.clients[t],
                    comp.facilities[static_cast<std::size_t>(local)]);
  }
  return result;
}

EpochReport StreamingSolver::resolve(fl::InstanceSnapshot next,
                                     const fl::DeltaLog& batch,
                                     bool all_dirty) {
  const auto start = Clock::now();
  const fl::Instance& inst = next.instance();
  const fl::Instance& prev = snapshot_.instance();
  const auto m = inst.num_facilities();
  const auto n = inst.num_clients();

  DFLP_CHECK_MSG(
      options_.bounds.dominates(core::InstanceBounds::of(inst)),
      "epoch " << next.epoch()
               << " outgrew the declared capacity bounds the schedule was "
                  "pinned from ("
               << inst.describe() << ")");

  const ClientMap cmap =
      match_keys(snapshot_.client_keys(), next.client_keys());

  // ---- Seeds of the dirty region, in the new dense ids. -----------------
  // Every client a delta names that survives the batch, every facility an
  // arrival names (also when the client leaves again in the same batch),
  // and every facility of a departed client. Facility ids are the same in
  // both snapshots. apply() checks the facility ids of surviving arrivals
  // only, so a cancelled arrival's ids are range-checked here.
  std::vector<fl::FacilityId> seed_f;
  std::vector<fl::ClientId> seed_c;
  if (all_dirty) {
    // Every client has a facility, so the facilities reach every node.
    seed_f.resize(static_cast<std::size_t>(m));
    std::iota(seed_f.begin(), seed_f.end(), 0);
  }
  for (const fl::Delta& d : batch.deltas()) {
    switch (d.kind) {
      case fl::Delta::Kind::kClientArrive:
        if (const fl::ClientId j = next.client_index(d.client); j >= 0)
          seed_c.push_back(j);
        for (const fl::KeyedEdge& e : d.edges) {
          if (e.peer >= 0 && e.peer < m) seed_f.push_back(e.peer);
        }
        break;
      case fl::Delta::Kind::kClientDepart:
        if (const fl::ClientId j = snapshot_.client_index(d.client); j >= 0) {
          for (const fl::ClientEdge& e : prev.client_edges(j))
            seed_f.push_back(e.facility);
        }
        break;
    }
  }

  // ---- The dirty components: one BFS from the seeds. --------------------
  std::vector<std::uint8_t> dirty_f(static_cast<std::size_t>(m), 0);
  std::vector<std::uint8_t> dirty_c(static_cast<std::size_t>(n), 0);
  std::vector<Component> dirty;
  const auto explore = [&](Component comp) {
    for (std::size_t fi = 0, ci = 0;
         fi < comp.facilities.size() || ci < comp.clients.size();) {
      for (; fi < comp.facilities.size(); ++fi) {
        for (const fl::FacilityEdge& e :
             inst.facility_edges(comp.facilities[fi])) {
          auto& seen = dirty_c[static_cast<std::size_t>(e.client)];
          if (seen) continue;
          seen = 1;
          comp.clients.push_back(e.client);
        }
      }
      for (; ci < comp.clients.size(); ++ci) {
        for (const fl::ClientEdge& e : inst.client_edges(comp.clients[ci])) {
          auto& seen = dirty_f[static_cast<std::size_t>(e.facility)];
          if (seen) continue;
          seen = 1;
          comp.facilities.push_back(e.facility);
        }
      }
    }
    std::sort(comp.facilities.begin(), comp.facilities.end());
    std::sort(comp.clients.begin(), comp.clients.end());
    dirty.push_back(std::move(comp));
  };
  for (fl::FacilityId i : seed_f) {
    if (dirty_f[static_cast<std::size_t>(i)]) continue;
    dirty_f[static_cast<std::size_t>(i)] = 1;
    explore(Component{{i}, {}});
  }
  for (fl::ClientId j : seed_c) {
    if (dirty_c[static_cast<std::size_t>(j)]) continue;
    dirty_c[static_cast<std::size_t>(j)] = 1;
    explore(Component{{}, {j}});
  }
  // Dense ids ascend with keys, so this is key order.
  std::sort(dirty.begin(), dirty.end(),
            [](const Component& a, const Component& b) {
              return a.facilities.front() < b.facilities.front();
            });

  EpochReport report;
  report.epoch = next.epoch();
  report.events = batch.size();
  report.num_facilities = m;
  report.num_clients = n;

  // ---- Carry every clean node's state over from the previous epoch. -----
  // A clean node's component is a previous-epoch component with the same
  // members, so its facility and client stay together.
  fl::IntegralSolution solution(inst);
  for (fl::FacilityId i = 0; i < m; ++i) {
    if (!dirty_f[static_cast<std::size_t>(i)] && solution_.is_open(i))
      solution.open(i);
  }
  for (fl::ClientId j = 0; j < n; ++j) {
    if (dirty_c[static_cast<std::size_t>(j)]) continue;
    solution.assign(j, solution_.assignment(
                           cmap.new_to_old[static_cast<std::size_t>(j)]));
  }

  // ---- Solve the dirty components; merge the table in key order. --------
  std::vector<ComponentEntry> table;
  table.reserve(components_.size() + dirty.size());
  std::vector<std::int32_t> local_client(
      dirty.empty() ? 0 : static_cast<std::size_t>(n));
  auto next_dirty = dirty.begin();
  const auto solve_until = [&](fl::FacilityId key_facility) {
    for (; next_dirty != dirty.end() &&
           next_dirty->facilities.front() < key_facility;
         ++next_dirty) {
      const SolveResult r =
          solve_component(next, *next_dirty, local_client, solution);
      report.rounds = std::max(report.rounds, r.rounds);
      report.messages += r.messages;
      table.push_back({next_dirty->facilities.front(), r.fractional_value});
    }
  };
  for (const ComponentEntry& entry : components_) {
    if (dirty_f[static_cast<std::size_t>(entry.facility)]) continue;
    solve_until(entry.facility);
    table.push_back(entry);
  }
  solve_until(m);
  report.components = static_cast<std::int64_t>(table.size());
  report.solved_components = static_cast<std::int64_t>(dirty.size());
  report.reused_components = report.components - report.solved_components;
  for (const ComponentEntry& entry : table)
    report.fractional_value += entry.fractional_value;

  std::string why;
  DFLP_CHECK_MSG(solution.is_feasible(inst, &why),
                 "epoch " << next.epoch()
                          << " assembled an infeasible solution: " << why);
  report.cost = solution.cost(inst);

  // ---- Recourse vs the previous epoch. ----------------------------------
  // Clean nodes kept their state, so only the dirty region can differ. The
  // service starts from an empty snapshot, so at epoch 0 no facility was
  // open before.
  Recourse& rc = report.recourse;
  for (const Component& comp : dirty) {
    for (fl::FacilityId i : comp.facilities) {
      const bool was_open = i < prev.num_facilities() && solution_.is_open(i);
      const bool is_open = solution.is_open(i);
      rc.facilities_opened += is_open && !was_open ? 1 : 0;
      rc.facilities_closed += was_open && !is_open ? 1 : 0;
    }
    for (fl::ClientId j : comp.clients) {
      const std::int32_t old = cmap.new_to_old[static_cast<std::size_t>(j)];
      if (old >= 0 && solution_.assignment(old) != solution.assignment(j))
        ++rc.clients_reassigned;
    }
  }
  rc.clients_arrived = n - cmap.survivors;
  rc.clients_departed = prev.num_clients() - cmap.survivors;

  snapshot_ = std::move(next);
  solution_ = std::move(solution);
  components_ = std::move(table);

  report.solve_ms = ms_since(start);
  report.total_ms = report.solve_ms;
  return report;
}

}  // namespace dflp::service
