// Tests for the epoch-batched streaming solver: warm-started re-solves
// must be bit-identical to the from-scratch baseline on every epoch, the
// component decomposition must agree with a whole-instance solve under a
// pinned schedule, and recourse accounting must be sane.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "core/mw_greedy.h"
#include "core/params.h"
#include "fl/delta.h"
#include "mixed_stream.h"
#include "service/streaming_solver.h"
#include "workload/stream.h"

namespace dflp::service {
namespace {

workload::StreamParams small_stream() {
  workload::StreamParams p;
  p.num_cells = 12;
  p.facilities_per_cell = 3;
  p.initial_clients = 60;
  p.client_degree = 2;
  p.arrival_fraction = 0.6;
  return p;
}

StreamingOptions make_options(const workload::StreamParams& p,
                              std::int64_t total_events, bool warm,
                              SolveEngine engine) {
  StreamingOptions opt;
  opt.params.k = 4;
  opt.params.seed = 42;
  opt.bounds = stream_bounds(p, total_events);
  opt.engine = engine;
  opt.warm_start = warm;
  return opt;
}

void expect_same_state(const StreamingSolver& a, const StreamingSolver& b) {
  const fl::Instance& inst = a.snapshot().instance();
  ASSERT_EQ(inst.num_clients(), b.snapshot().instance().num_clients());
  ASSERT_EQ(inst.num_facilities(),
            b.snapshot().instance().num_facilities());
  for (fl::FacilityId i = 0; i < inst.num_facilities(); ++i)
    EXPECT_EQ(a.solution().is_open(i), b.solution().is_open(i))
        << "facility " << i;
  for (fl::ClientId j = 0; j < inst.num_clients(); ++j)
    EXPECT_EQ(a.solution().assignment(j), b.solution().assignment(j))
        << "client " << j;
}

/// Minimal union-find over a snapshot's bipartite node ids (facility i ->
/// i, client j -> m + j), independent of the service's own partition.
class Components {
 public:
  explicit Components(const fl::Instance& inst)
      : m_(inst.num_facilities()),
        parent_(static_cast<std::size_t>(m_ + inst.num_clients())) {
    for (std::size_t v = 0; v < parent_.size(); ++v)
      parent_[v] = static_cast<std::int32_t>(v);
    for (fl::FacilityId i = 0; i < m_; ++i)
      for (const fl::FacilityEdge& e : inst.facility_edges(i))
        parent_[static_cast<std::size_t>(find(i))] = find(m_ + e.client);
  }
  std::int32_t facility(fl::FacilityId i) { return find(i); }
  std::int32_t client(fl::ClientId j) { return find(m_ + j); }

 private:
  std::int32_t find(std::int32_t v) {
    while (parent_[static_cast<std::size_t>(v)] != v)
      v = parent_[static_cast<std::size_t>(v)] =
          parent_[static_cast<std::size_t>(
              parent_[static_cast<std::size_t>(v)])];
    return v;
  }
  std::int32_t m_;
  std::vector<std::int32_t> parent_;
};

/// Components of `after` that hold a surviving client a delta of `batch`
/// names, a facility an arrival names, or a facility of a departed client:
/// exactly the components a warm epoch must re-solve.
std::int64_t dirty_components(const fl::InstanceSnapshot& before,
                              const fl::InstanceSnapshot& after,
                              const fl::DeltaLog& batch) {
  Components comps(after.instance());
  std::set<std::int32_t> dirty;
  for (const fl::Delta& d : batch.deltas()) {
    switch (d.kind) {
      case fl::Delta::Kind::kClientArrive:
        if (const fl::ClientId j = after.client_index(d.client); j >= 0)
          dirty.insert(comps.client(j));
        for (const fl::KeyedEdge& e : d.edges)
          dirty.insert(comps.facility(e.peer));
        break;
      case fl::Delta::Kind::kClientDepart:
        if (const fl::ClientId j = before.client_index(d.client); j >= 0)
          for (const fl::ClientEdge& e : before.instance().client_edges(j))
            dirty.insert(comps.facility(e.facility));
        break;
    }
  }
  return static_cast<std::int64_t>(dirty.size());
}

/// What a bridging input exercised, counted against the snapshot each
/// batch was applied to.
struct Coverage {
  int bridging_arrivals = 0;     ///< facilities sat in >= 2 components
  int isolating_departures = 0;  ///< left a facility with no client
};

void count_coverage(const fl::InstanceSnapshot& before,
                    const fl::InstanceSnapshot& after,
                    const fl::DeltaLog& batch, Coverage& cov) {
  Components comps(before.instance());
  for (const fl::Delta& d : batch.deltas()) {
    if (d.kind == fl::Delta::Kind::kClientArrive) {
      std::set<std::int32_t> touched;
      for (const fl::KeyedEdge& e : d.edges)
        touched.insert(comps.facility(e.peer));
      if (touched.size() >= 2) ++cov.bridging_arrivals;
    } else {
      const fl::ClientId j = before.client_index(d.client);
      if (j < 0) continue;
      for (const fl::ClientEdge& e : before.instance().client_edges(j)) {
        if (after.instance().facility_edges(e.facility).empty()) {
          ++cov.isolating_departures;
          break;
        }
      }
    }
  }
}

/// Feeds the same batches to a warm and a cold service. Per epoch, warm
/// and cold must agree on solution, cost, LP value and all five recourse
/// counts, and the warm service must re-solve exactly the components
/// `dirty_components` names.
template <typename Source>
Coverage run_warm_vs_cold(const fl::InstanceSnapshot& initial,
                          Source& source, const core::InstanceBounds& bounds,
                          SolveEngine engine, int epochs,
                          int events_per_epoch) {
  StreamingOptions opt;
  opt.params.k = 4;
  opt.params.seed = 42;
  opt.bounds = bounds;
  opt.engine = engine;
  StreamingSolver warm(initial, opt);
  opt.warm_start = false;
  StreamingSolver cold(initial, opt);

  // Epoch 0 (the constructor's solve) must already agree.
  EXPECT_EQ(warm.last_report().cost, cold.last_report().cost);
  expect_same_state(warm, cold);

  Coverage cov;
  std::int64_t total_reused = 0;
  for (int e = 0; e < epochs; ++e) {
    fl::DeltaLog batch;
    source.fill_epoch(events_per_epoch, batch);
    for (const fl::Delta& d : batch.deltas()) {
      warm.ingest(d);
      cold.ingest(d);
    }
    const fl::InstanceSnapshot before = warm.snapshot();
    const EpochReport wr = warm.commit_epoch();
    const EpochReport cr = cold.commit_epoch();
    count_coverage(before, warm.snapshot(), batch, cov);

    // Identical final solution cost on every epoch — exact, not approx.
    EXPECT_EQ(wr.cost, cr.cost) << "epoch " << e;
    EXPECT_EQ(wr.fractional_value, cr.fractional_value) << "epoch " << e;
    expect_same_state(warm, cold);

    // Identical recourse (same solutions on both sides).
    EXPECT_EQ(wr.recourse.facilities_opened, cr.recourse.facilities_opened);
    EXPECT_EQ(wr.recourse.facilities_closed, cr.recourse.facilities_closed);
    EXPECT_EQ(wr.recourse.clients_reassigned,
              cr.recourse.clients_reassigned);
    EXPECT_EQ(wr.recourse.clients_arrived, cr.recourse.clients_arrived);
    EXPECT_EQ(wr.recourse.clients_departed, cr.recourse.clients_departed);

    EXPECT_EQ(cr.reused_components, 0);
    EXPECT_EQ(cr.solved_components, cr.components);
    EXPECT_EQ(wr.components, cr.components);
    EXPECT_EQ(wr.reused_components + wr.solved_components, wr.components);
    EXPECT_EQ(wr.solved_components,
              dirty_components(before, warm.snapshot(), batch))
        << "epoch " << e;
    total_reused += wr.reused_components;

    // The warm run must do strictly less solver work whenever anything is
    // reused.
    if (wr.reused_components > 0) {
      EXPECT_LT(wr.messages, cr.messages) << "epoch " << e;
    }
  }
  // Some components stay untouched in every input used here.
  EXPECT_GT(total_reused, 0);
  return cov;
}

void run_client_stream(SolveEngine engine) {
  const workload::StreamParams sp = small_stream();
  constexpr int kEpochs = 5;
  constexpr int kEventsPerEpoch = 15;
  workload::ClientStream stream(sp, 7);
  const fl::InstanceSnapshot initial = stream.initial_snapshot();
  (void)run_warm_vs_cold(initial, stream,
                         stream_bounds(sp, kEpochs * kEventsPerEpoch),
                         engine, kEpochs, kEventsPerEpoch);
}

/// Arrivals that bridge components and departures that isolate a
/// facility, on a sparse start.
void run_bridging_arrivals(SolveEngine engine) {
  workload::StreamParams sp = small_stream();
  sp.initial_clients = 40;
  constexpr int kEpochs = 8;
  constexpr int kEventsPerEpoch = 10;
  const workload::ClientStream start(sp, 13);
  const fl::InstanceSnapshot& initial = start.initial_snapshot();
  fl::MixedStream mixed(initial, 0xA11C1);
  const Coverage cov = run_warm_vs_cold(
      initial, mixed, stream_bounds(sp, kEpochs * kEventsPerEpoch), engine,
      kEpochs, kEventsPerEpoch);
  EXPECT_GT(cov.bridging_arrivals, 0);
  EXPECT_GT(cov.isolating_departures, 0);
}

TEST(StreamingSolver, WarmEqualsColdMwGreedy) {
  run_client_stream(SolveEngine::kMwGreedy);
}

TEST(StreamingSolver, WarmEqualsColdPipeline) {
  run_client_stream(SolveEngine::kPipeline);
}

TEST(StreamingSolver, WarmEqualsColdBridgingArrivalsMwGreedy) {
  run_bridging_arrivals(SolveEngine::kMwGreedy);
}

TEST(StreamingSolver, WarmEqualsColdBridgingArrivalsPipeline) {
  run_bridging_arrivals(SolveEngine::kPipeline);
}

TEST(StreamingSolver, ComponentDecompositionMatchesGlobalSolve) {
  // Cells are connectivity components, so a whole-instance mw-greedy run
  // under the same pinned schedule must produce the very same solution the
  // service assembles from per-component solves (the algorithm is
  // deterministic and tie-breaks only on relative node order, which the
  // monotone renumbering preserves).
  const workload::StreamParams sp = small_stream();
  workload::ClientStream stream(sp, 11);
  const StreamingOptions opt =
      make_options(sp, 0, /*warm=*/true, SolveEngine::kMwGreedy);
  StreamingSolver service(stream.initial_snapshot(), opt);

  core::MwParams params = opt.params;
  const core::MwSchedule pinned =
      core::derive_schedule_from_bounds(opt.bounds, opt.params);
  params.pinned_schedule = &pinned;
  const fl::Instance& inst = stream.initial_snapshot().instance();
  const core::MwGreedyOutcome global = core::run_mw_greedy(inst, params);

  EXPECT_EQ(service.last_report().cost, global.solution.cost(inst));
  for (fl::FacilityId i = 0; i < inst.num_facilities(); ++i)
    EXPECT_EQ(service.solution().is_open(i), global.solution.is_open(i));
  for (fl::ClientId j = 0; j < inst.num_clients(); ++j)
    EXPECT_EQ(service.solution().assignment(j),
              global.solution.assignment(j));
}

TEST(StreamingSolver, EmptyEpochReusesEverything) {
  const workload::StreamParams sp = small_stream();
  workload::ClientStream stream(sp, 3);
  StreamingSolver service(
      stream.initial_snapshot(),
      make_options(sp, 0, /*warm=*/true, SolveEngine::kMwGreedy));
  const double cost0 = service.last_report().cost;

  const EpochReport rep = service.commit_epoch();
  EXPECT_EQ(rep.epoch, 1);
  EXPECT_EQ(rep.events, 0u);
  EXPECT_EQ(rep.solved_components, 0);
  EXPECT_EQ(rep.reused_components, rep.components);
  EXPECT_EQ(rep.rounds, 0u);
  EXPECT_EQ(rep.messages, 0u);
  EXPECT_EQ(rep.cost, cost0);
  EXPECT_EQ(rep.recourse.facilities_opened, 0);
  EXPECT_EQ(rep.recourse.facilities_closed, 0);
  EXPECT_EQ(rep.recourse.clients_reassigned, 0);
  EXPECT_EQ(rep.recourse.clients_arrived, 0);
  EXPECT_EQ(rep.recourse.clients_departed, 0);
}

TEST(StreamingSolver, RecourseCountsArrivalsAndDepartures) {
  const workload::StreamParams sp = small_stream();
  workload::ClientStream stream(sp, 5);
  StreamingSolver service(
      stream.initial_snapshot(),
      make_options(sp, 64, /*warm=*/true, SolveEngine::kMwGreedy));

  // Recourse is a snapshot diff, so an arrive+depart of the same client
  // inside one epoch cancels; count net membership changes here too.
  fl::DeltaLog batch;
  stream.fill_epoch(20, batch);
  std::set<fl::NodeKey> arrived;
  std::int64_t departures = 0;
  for (const fl::Delta& d : batch.deltas()) {
    if (d.kind == fl::Delta::Kind::kClientArrive) {
      arrived.insert(d.client);
    } else if (d.kind == fl::Delta::Kind::kClientDepart) {
      if (arrived.erase(d.client) == 0) ++departures;
    }
    service.ingest(d);
  }
  const auto arrivals = static_cast<std::int64_t>(arrived.size());
  const EpochReport rep = service.commit_epoch();
  EXPECT_EQ(rep.recourse.clients_arrived, arrivals);
  EXPECT_EQ(rep.recourse.clients_departed, departures);
  EXPECT_EQ(rep.num_clients,
            sp.initial_clients + arrivals - departures);
}

TEST(StreamingSolver, RejectsUndersizedBounds) {
  const workload::StreamParams sp = small_stream();
  workload::ClientStream stream(sp, 1);
  StreamingOptions opt =
      make_options(sp, 0, /*warm=*/true, SolveEngine::kMwGreedy);
  opt.bounds.max_network_nodes = 4;  // way below the initial snapshot
  EXPECT_THROW(StreamingSolver(stream.initial_snapshot(), std::move(opt)),
               CheckError);
}

TEST(StreamingSolver, FailedCommitDropsItsBatchAndKeepsTheEpoch) {
  // Bounds declared for 10 events; 40 arrivals outgrow them.
  workload::StreamParams sp;
  sp.num_cells = 8;
  sp.initial_clients = 64;
  sp.arrival_fraction = 1.0;
  workload::ClientStream stream(sp, 3);
  StreamingOptions opt;
  opt.params.k = 4;
  opt.params.seed = 42;
  opt.bounds = stream_bounds(sp, 10);
  StreamingSolver service(stream.initial_snapshot(), opt);
  const StreamingSolver before = service;

  fl::DeltaLog batch;
  stream.fill_epoch(40, batch);
  for (const fl::Delta& d : batch.deltas()) service.ingest(d);
  EXPECT_THROW((void)service.commit_epoch(), CheckError);
  EXPECT_EQ(service.snapshot().epoch(), 0);
  EXPECT_EQ(service.last_report().epoch, 0);
  EXPECT_EQ(service.snapshot().instance().num_clients(), 64);
  std::string why;
  EXPECT_TRUE(
      service.solution().is_feasible(service.snapshot().instance(), &why))
      << why;
  expect_same_state(service, before);

  // A batch that apply() rejects is dropped as well, so it cannot fail
  // every later commit.
  service.ingest(fl::Delta::client_depart(1'000'000));
  EXPECT_THROW((void)service.commit_epoch(), CheckError);
  EXPECT_EQ(service.snapshot().epoch(), 0);

  // Neither failed batch is left pending, and the component table stayed
  // at epoch 0 too: the next commit applies no event, reuses every
  // component and keeps the cost.
  const EpochReport rep = service.commit_epoch();
  EXPECT_EQ(rep.events, 0u);
  EXPECT_EQ(rep.epoch, 1);
  EXPECT_EQ(rep.solved_components, 0);
  EXPECT_EQ(rep.reused_components, before.last_report().components);
  EXPECT_EQ(rep.cost, before.last_report().cost);
  expect_same_state(service, before);
}

TEST(StreamingSolver, ArrivalThatLeavesInItsBatchMayNameAnyFacility) {
  // An arrival that departs in the same batch cancels in apply(), which
  // checks the facility ids of surviving arrivals only, so the batch
  // commits; the cancelled arrival's ids (one past the last facility, far
  // past it, negative) must not seed the dirty region.
  const workload::StreamParams sp = small_stream();
  workload::ClientStream stream(sp, 3);
  StreamingSolver service(
      stream.initial_snapshot(),
      make_options(sp, 0, /*warm=*/true, SolveEngine::kMwGreedy));
  const StreamingSolver before = service;

  const fl::FacilityId m = service.snapshot().instance().num_facilities();
  fl::NodeKey key = service.snapshot().next_client_key();
  for (const fl::FacilityId bad : {m, fl::FacilityId{99}, fl::FacilityId{-1}}) {
    service.ingest(fl::Delta::client_arrive(key, {{bad, 1.0}}));
    service.ingest(fl::Delta::client_depart(key));
    ++key;
  }
  const EpochReport rep = service.commit_epoch();
  EXPECT_EQ(rep.epoch, 1);
  EXPECT_EQ(rep.events, 6u);
  EXPECT_EQ(rep.solved_components, 0);
  EXPECT_EQ(rep.reused_components, before.last_report().components);
  EXPECT_EQ(rep.cost, before.last_report().cost);
  EXPECT_EQ(rep.recourse.clients_arrived, 0);
  EXPECT_EQ(rep.recourse.clients_departed, 0);
  expect_same_state(service, before);
}

/// Expects `fn` to throw a CheckError whose message contains `what`.
template <typename Fn>
void expect_check_error(Fn fn, const std::string& what) {
  try {
    fn();
    ADD_FAILURE() << "no CheckError; expected one naming " << what;
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
        << e.what();
  }
}

TEST(StreamBounds, RejectsSizesBeyondTheNodeLimit) {
  constexpr std::int64_t kLimit = std::numeric_limits<std::int32_t>::max();
  workload::StreamParams sp;
  sp.num_cells = 4;
  sp.initial_clients = 10;
  expect_check_error([&] { (void)stream_bounds(sp, std::int64_t{1} << 32); },
                     "max_events");
  sp.initial_clients = 1000;
  expect_check_error([&] { (void)stream_bounds(sp, 2147483000); },
                     "max_events");
  sp.num_cells = 1 << 30;
  expect_check_error([&] { (void)stream_bounds(sp, 1); },
                     "num_cells * facilities_per_cell");

  // The largest stream that fits reaches the limit exactly.
  sp.num_cells = 4;
  const core::InstanceBounds b =
      stream_bounds(sp, kLimit - 4 * sp.facilities_per_cell - 1000);
  EXPECT_EQ(b.max_network_nodes, kLimit);
  EXPECT_EQ(b.max_facility_degree, kLimit - 4 * sp.facilities_per_cell);
}

TEST(ClientStream, RejectsFacilityCountBeyondTheNodeLimit) {
  workload::StreamParams sp;
  sp.num_cells = 1 << 30;
  sp.facilities_per_cell = 4;
  expect_check_error([&] { workload::ClientStream stream(sp, 1); },
                     "num_cells * facilities_per_cell");
}

TEST(DeriveSchedule, PinnedScheduleWinsAndBoundsDominate) {
  const workload::StreamParams sp = small_stream();
  workload::ClientStream stream(sp, 9);
  const fl::Instance& inst = stream.initial_snapshot().instance();

  core::MwParams params;
  params.k = 4;
  const core::InstanceBounds bounds = stream_bounds(sp, 100);
  EXPECT_TRUE(bounds.dominates(core::InstanceBounds::of(inst)));

  const core::MwSchedule from_bounds =
      core::derive_schedule_from_bounds(bounds, params);
  params.pinned_schedule = &from_bounds;
  const core::MwSchedule resolved = core::derive_schedule(inst, params);
  EXPECT_EQ(resolved.levels, from_bounds.levels);
  EXPECT_EQ(resolved.bit_budget, from_bounds.bit_budget);
  EXPECT_EQ(resolved.thresholds, from_bounds.thresholds);

  // Without pinning, the schedule derives from the instance itself and
  // must match derive_schedule_from_bounds on the instance's own bounds.
  params.pinned_schedule = nullptr;
  const core::MwSchedule own = core::derive_schedule(inst, params);
  const core::MwSchedule own_bounds = core::derive_schedule_from_bounds(
      core::InstanceBounds::of(inst), params);
  EXPECT_EQ(own.thresholds, own_bounds.thresholds);
  EXPECT_EQ(own.y_scale, own_bounds.y_scale);
  EXPECT_EQ(own.num_network_nodes, own_bounds.num_network_nodes);
}

}  // namespace
}  // namespace dflp::service
