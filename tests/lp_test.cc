// Tests for the LP substrate: simplex on known programs, the UFL LP against
// brute force, and the dual-ascent bound's feasibility and ordering.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <queue>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "common/check.h"
#include "fl/metric.h"
#include "lp/dual_ascent.h"
#include "lp/simplex.h"
#include "lp/ufl_lp.h"
#include "oracles.h"
#include "seq/brute_force.h"
#include "workload/generators.h"

namespace dflp::lp {
namespace {

TEST(Simplex, SolvesTextbookMaximization) {
  // max 3a + 5b st a<=4, 2b<=12, 3a+2b<=18  => min -3a-5b, opt -36 at (2,6).
  LinearProgram lp;
  const int a = lp.add_variable(-3.0);
  const int b = lp.add_variable(-5.0);
  lp.add_constraint({{a, 1.0}}, Relation::kLe, 4.0);
  lp.add_constraint({{b, 2.0}}, Relation::kLe, 12.0);
  lp.add_constraint({{a, 3.0}, {b, 2.0}}, Relation::kLe, 18.0);
  const LpSolution sol = solve(lp);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.objective, -36.0, 1e-9);
  EXPECT_NEAR(sol.x[static_cast<std::size_t>(a)], 2.0, 1e-9);
  EXPECT_NEAR(sol.x[static_cast<std::size_t>(b)], 6.0, 1e-9);
}

TEST(Simplex, HandlesGeConstraintsViaTwoPhase) {
  // min x + 2y st x + y >= 3, y >= 1  => opt at (2,1) value 4.
  LinearProgram lp;
  const int x = lp.add_variable(1.0);
  const int y = lp.add_variable(2.0);
  lp.add_constraint({{x, 1.0}, {y, 1.0}}, Relation::kGe, 3.0);
  lp.add_constraint({{y, 1.0}}, Relation::kGe, 1.0);
  const LpSolution sol = solve(lp);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.objective, 4.0, 1e-9);
}

TEST(Simplex, HandlesEquality) {
  // min x + y st x + y = 5, x <= 2 => opt 5 with x in [0,2].
  LinearProgram lp;
  const int x = lp.add_variable(1.0);
  const int y = lp.add_variable(1.0);
  lp.add_constraint({{x, 1.0}, {y, 1.0}}, Relation::kEq, 5.0);
  lp.add_constraint({{x, 1.0}}, Relation::kLe, 2.0);
  const LpSolution sol = solve(lp);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.objective, 5.0, 1e-9);
}

TEST(Simplex, DetectsInfeasible) {
  LinearProgram lp;
  const int x = lp.add_variable(1.0);
  lp.add_constraint({{x, 1.0}}, Relation::kGe, 5.0);
  lp.add_constraint({{x, 1.0}}, Relation::kLe, 1.0);
  EXPECT_EQ(solve(lp).status, SolveStatus::kInfeasible);
}

TEST(Simplex, DetectsUnbounded) {
  LinearProgram lp;
  const int x = lp.add_variable(-1.0);  // maximize x with no upper bound
  lp.add_constraint({{x, 1.0}}, Relation::kGe, 0.0);
  EXPECT_EQ(solve(lp).status, SolveStatus::kUnbounded);
}

TEST(Simplex, NegativeRhsNormalization) {
  // min x st -x <= -2  (i.e. x >= 2).
  LinearProgram lp;
  const int x = lp.add_variable(1.0);
  lp.add_constraint({{x, -1.0}}, Relation::kLe, -2.0);
  const LpSolution sol = solve(lp);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.objective, 2.0, 1e-9);
}

TEST(Simplex, DuplicateTermsAreSummed) {
  // min x st x + x >= 4 => x = 2.
  LinearProgram lp;
  const int x = lp.add_variable(1.0);
  lp.add_constraint({{x, 1.0}, {x, 1.0}}, Relation::kGe, 4.0);
  const LpSolution sol = solve(lp);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.objective, 2.0, 1e-9);
}

TEST(Simplex, RejectsBadConstraints) {
  LinearProgram lp;
  (void)lp.add_variable(1.0);
  std::vector<std::pair<int, double>> unknown_var{{5, 1.0}};
  EXPECT_THROW(lp.add_constraint(unknown_var, Relation::kLe, 1.0),
               dflp::CheckError);
  std::vector<std::pair<int, double>> ok_var{{0, 1.0}};
  EXPECT_THROW(lp.add_constraint(ok_var, Relation::kLe, std::nan("")),
               dflp::CheckError);
}

// --------------------------------------------------------------- UFL LP --

TEST(UflLp, ModelShape) {
  workload::UniformParams p;
  p.num_facilities = 4;
  p.num_clients = 8;
  p.client_degree = 3;
  const fl::Instance inst = workload::uniform_random(p, 1);
  const LinearProgram lp = build_ufl_lp(inst);
  EXPECT_EQ(lp.num_variables(), 4 + 24);
  EXPECT_EQ(lp.num_constraints(), 8 + 24);
}

TEST(UflLp, OptimumIsLowerBoundOnBruteForce) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    workload::UniformParams p;
    p.num_facilities = 6;
    p.num_clients = 12;
    p.client_degree = 3;
    const fl::Instance inst = workload::uniform_random(p, seed);
    const auto lp = solve_ufl_lp(inst);
    ASSERT_TRUE(lp.has_value());
    const auto brute = seq::brute_force_solve(inst);
    ASSERT_TRUE(brute.has_value());
    EXPECT_LE(lp->optimum, brute->optimum + 1e-6) << "seed " << seed;
    // The UFL LP has integrality gap < 2 on these tiny instances; at the
    // very least the LP should be a nontrivial fraction of OPT.
    EXPECT_GE(lp->optimum, 0.2 * brute->optimum) << "seed " << seed;
  }
}

TEST(UflLp, FractionalSolutionIsFeasible) {
  workload::UniformParams p;
  p.num_facilities = 5;
  p.num_clients = 10;
  p.client_degree = 3;
  const fl::Instance inst = workload::uniform_random(p, 3);
  const auto lp = solve_ufl_lp(inst);
  ASSERT_TRUE(lp.has_value());
  std::string why;
  EXPECT_TRUE(lp->fractional.is_feasible(inst, 1e-6, &why)) << why;
  EXPECT_NEAR(lp->fractional.value(inst), lp->optimum, 1e-6);
}

TEST(UflLp, IntegralInstanceSolvedExactly) {
  // One facility, one client: LP optimum must equal f + c.
  fl::InstanceBuilder b;
  const auto f = b.add_facility(7.0);
  const auto c = b.add_client();
  b.connect(f, c, 3.0);
  const fl::Instance inst = b.build();
  const auto lp = solve_ufl_lp(inst);
  ASSERT_TRUE(lp.has_value());
  EXPECT_NEAR(lp->optimum, 10.0, 1e-9);
}

// ----------------------------------------------------------- dual ascent --

TEST(DualAscent, FeasibleAndBelowLpOnRandomInstances) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    workload::UniformParams p;
    p.num_facilities = 6;
    p.num_clients = 14;
    p.client_degree = 3;
    const fl::Instance inst = workload::uniform_random(p, seed);
    const DualAscentResult dual = dual_ascent_bound(inst);
    EXPECT_TRUE(is_dual_feasible(inst, dual.alpha)) << "seed " << seed;
    const auto lp = solve_ufl_lp(inst);
    ASSERT_TRUE(lp.has_value());
    EXPECT_LE(dual.lower_bound, lp->optimum + 1e-6) << "seed " << seed;
    EXPECT_GT(dual.lower_bound, 0.0);
  }
}

TEST(DualAscent, ExactOnSingleFacility) {
  // One facility (cost 6) and three clients at distance 1: alphas grow
  // together; facility tight when 3*(t-1) = 6 => t = 3; LB = 9 = OPT.
  fl::InstanceBuilder b;
  const auto f = b.add_facility(6.0);
  for (int j = 0; j < 3; ++j) {
    const auto c = b.add_client();
    b.connect(f, c, 1.0);
  }
  const fl::Instance inst = b.build();
  const DualAscentResult dual = dual_ascent_bound(inst);
  EXPECT_NEAR(dual.lower_bound, 9.0, 1e-9);
  for (double a : dual.alpha) EXPECT_NEAR(a, 3.0, 1e-9);
  EXPECT_NEAR(dual.tight_time[0], 3.0, 1e-9);
  for (auto w : dual.witness) EXPECT_EQ(w, 0);
}

TEST(DualAscent, ZeroCostFacilityFreezesAtConnectionCost) {
  fl::InstanceBuilder b;
  const auto f = b.add_facility(0.0);
  const auto c = b.add_client();
  b.connect(f, c, 2.5);
  const fl::Instance inst = b.build();
  const DualAscentResult dual = dual_ascent_bound(inst);
  EXPECT_NEAR(dual.alpha[0], 2.5, 1e-9);
  EXPECT_NEAR(dual.lower_bound, 2.5, 1e-9);
}

TEST(DualAscent, ScalesToLargeInstancesQuickly) {
  workload::UniformParams p;
  p.num_facilities = 200;
  p.num_clients = 5000;
  p.client_degree = 6;
  const fl::Instance inst = workload::uniform_random(p, 5);
  const DualAscentResult dual = dual_ascent_bound(inst);
  EXPECT_TRUE(is_dual_feasible(inst, dual.alpha));
  EXPECT_GT(dual.lower_bound, 0.0);
}

TEST(DualAscent, WitnessesAreAdjacent) {
  workload::UniformParams p;
  p.num_facilities = 8;
  p.num_clients = 30;
  p.client_degree = 4;
  const fl::Instance inst = workload::uniform_random(p, 9);
  const DualAscentResult dual = dual_ascent_bound(inst);
  for (fl::ClientId j = 0; j < inst.num_clients(); ++j) {
    const fl::FacilityId w = dual.witness[static_cast<std::size_t>(j)];
    ASSERT_NE(w, fl::kNoFacility);
    EXPECT_TRUE(std::isfinite(inst.connection_cost(w, j)));
  }
}

TEST(CheapestConnectionBound, OrderedBelowDualAscent) {
  workload::UniformParams p;
  p.num_facilities = 10;
  p.num_clients = 40;
  p.client_degree = 4;
  p.opening_lo = 20.0;  // opening costs matter => dual ascent strictly wins
  p.opening_hi = 50.0;
  const fl::Instance inst = workload::uniform_random(p, 2);
  const double cheap = cheapest_connection_bound(inst);
  const DualAscentResult dual = dual_ascent_bound(inst);
  EXPECT_GE(dual.lower_bound, cheap - 1e-9);
}


// ------------------------------------------ dual-ascent canonical order --

// The bound as it was first written: every crossing event queued up front,
// every payer change queuing a fresh tight prediction under a version
// stamp, all in one heap of O(E) events. Kept as the test oracle for the
// canonical event order: time first; at equal time crossings before tight
// events; then client or facility id; then edge index or version.
DualAscentResult reference_dual_ascent(const fl::Instance& inst) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  struct Event {
    double time;
    int type;  // 0 = crossing (a = client, b = edge index),
               // 1 = tight (a = facility, b = version)
    std::int32_t a;
    std::int32_t b;
    bool operator>(const Event& o) const {
      return std::tie(time, type, a, b) > std::tie(o.time, o.type, o.a, o.b);
    }
  };
  struct Facility {
    double slack = 0.0;
    double updated_at = 0.0;
    std::int32_t payers = 0;
    std::int32_t version = 0;
    bool tight = false;
  };
  const auto m = static_cast<std::size_t>(inst.num_facilities());
  const auto n = static_cast<std::size_t>(inst.num_clients());
  std::vector<Facility> fac(m);
  std::vector<double> alpha(n, -1.0);
  std::vector<double> tight_time(m, kInf);
  std::vector<fl::FacilityId> witness(n, fl::kNoFacility);
  std::vector<std::vector<fl::FacilityId>> paying(n);
  std::priority_queue<Event, std::vector<Event>, std::greater<>> events;
  for (std::size_t i = 0; i < m; ++i) {
    fac[i].slack = inst.opening_cost(static_cast<fl::FacilityId>(i));
    fac[i].tight = fac[i].slack <= 0.0;
  }
  for (fl::ClientId j = 0; j < inst.num_clients(); ++j) {
    const auto edges = inst.client_edges(j);
    for (std::size_t k = 0; k < edges.size(); ++k)
      events.push({edges[k].cost, 0, j, static_cast<std::int32_t>(k)});
  }
  const auto refresh = [](Facility& f, double t) {
    if (t > f.updated_at) {
      f.slack -= static_cast<double>(f.payers) * (t - f.updated_at);
      f.updated_at = t;
    }
  };
  const auto predict = [&](fl::FacilityId i) {
    Facility& f = fac[static_cast<std::size_t>(i)];
    if (f.tight || f.payers == 0) return;
    events.push({f.updated_at + f.slack / static_cast<double>(f.payers), 1,
                 i, ++f.version});
  };
  const auto freeze = [&](fl::ClientId j, double t, fl::FacilityId w) {
    const auto ju = static_cast<std::size_t>(j);
    if (alpha[ju] >= 0.0) return;
    alpha[ju] = t;
    witness[ju] = w;
    for (fl::FacilityId i : paying[ju]) {
      Facility& f = fac[static_cast<std::size_t>(i)];
      if (f.tight) continue;
      refresh(f, t);
      --f.payers;
      ++f.version;
      predict(i);
    }
    paying[ju].clear();
  };
  const auto tighten = [&](fl::FacilityId i, double t) {
    Facility& f = fac[static_cast<std::size_t>(i)];
    refresh(f, t);
    f.tight = true;
    tight_time[static_cast<std::size_t>(i)] = t;
    std::vector<fl::ClientId> payers;
    for (const fl::FacilityEdge& e : inst.facility_edges(i)) {
      const auto& pv = paying[static_cast<std::size_t>(e.client)];
      if (alpha[static_cast<std::size_t>(e.client)] < 0.0 &&
          std::find(pv.begin(), pv.end(), i) != pv.end())
        payers.push_back(e.client);
    }
    for (fl::ClientId j : payers) freeze(j, t, i);
  };
  while (!events.empty()) {
    const Event ev = events.top();
    events.pop();
    if (ev.type == 0) {
      if (alpha[static_cast<std::size_t>(ev.a)] >= 0.0) continue;
      const fl::ClientEdge edge =
          inst.client_edges(ev.a)[static_cast<std::size_t>(ev.b)];
      Facility& f = fac[static_cast<std::size_t>(edge.facility)];
      if (f.tight) {
        freeze(ev.a, ev.time, edge.facility);
        continue;
      }
      refresh(f, ev.time);
      if (f.slack <= 1e-12) {
        tighten(edge.facility, ev.time);
        freeze(ev.a, ev.time, edge.facility);
      } else {
        ++f.payers;
        ++f.version;
        paying[static_cast<std::size_t>(ev.a)].push_back(edge.facility);
        predict(edge.facility);
      }
    } else {
      const Facility& f = fac[static_cast<std::size_t>(ev.a)];
      if (!f.tight && ev.b == f.version) tighten(ev.a, ev.time);
    }
  }
  DualAscentResult r;
  r.alpha = std::move(alpha);
  r.tight_time = std::move(tight_time);
  r.witness = std::move(witness);
  for (double a : r.alpha) r.lower_bound += a;
  return r;
}

fl::Instance metric_instance(std::int32_t facilities, std::uint64_t seed) {
  // The parameters `dflp_cli generate metric <facilities> <seed>` uses.
  fl::MetricParams mp;
  mp.facilities = facilities;
  mp.clients = 3 * facilities;
  mp.clusters = std::max<std::int32_t>(2, facilities / 8);
  return fl::make_metric_instance(mp, seed).instance;
}

/// Expects `got` and `want` to hold the same bits, naming the first index
/// where they part (so -0.0 and 0.0 differ, and +inf matches itself).
template <class T>
void expect_same_bits(const std::vector<T>& got, const std::vector<T>& want,
                      const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  std::size_t differ = 0;
  std::size_t first = 0;
  for (std::size_t k = got.size(); k-- > 0;) {
    if (std::memcmp(&got[k], &want[k], sizeof(T)) != 0) {
      ++differ;
      first = k;
    }
  }
  EXPECT_EQ(differ, 0U) << what << " first differs at index " << first
                        << ": " << got[first] << " vs " << want[first];
}

void expect_matches_reference(const fl::Instance& inst) {
  const DualAscentResult got = dual_ascent_bound(inst);
  const DualAscentResult want = reference_dual_ascent(inst);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.lower_bound),
            std::bit_cast<std::uint64_t>(want.lower_bound));
  expect_same_bits(got.alpha, want.alpha, "alpha");
  expect_same_bits(got.tight_time, want.tight_time, "tight_time");
  expect_same_bits(got.witness, want.witness, "witness");
}

/// `uniform_random` with the given shape and its costs coarsened to
/// integers (opening costs f/opening_div, connection costs c/connection_div,
/// rounded), so that crossings and tight predictions collide at equal
/// times. Rounding can zero a cost, which starts a facility tight or puts
/// a crossing at t=0.
fl::Instance integer_cost_instance(const workload::UniformParams& p,
                                   double opening_div, double connection_div,
                                   std::uint64_t seed) {
  const fl::Instance base = workload::uniform_random(p, seed);
  fl::InstanceBuilder b;
  for (fl::FacilityId i = 0; i < base.num_facilities(); ++i)
    (void)b.add_facility(std::round(base.opening_cost(i) / opening_div));
  for (fl::ClientId j = 0; j < base.num_clients(); ++j) (void)b.add_client();
  for (fl::FacilityId i = 0; i < base.num_facilities(); ++i)
    for (const fl::FacilityEdge& e : base.facility_edges(i))
      b.connect(i, e.client, std::round(e.cost / connection_div));
  return b.build();
}

TEST(DualAscentOrder, MatchesReferenceOnIntegerCosts) {
  workload::UniformParams p;
  p.num_facilities = 200;
  p.num_clients = 1000;
  p.client_degree = 8;
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    expect_matches_reference(integer_cost_instance(p, 10.0, 4.0, seed));
  }
}

TEST(DualAscentOrder, MatchesReferenceOnSmallTieHeavyInstances) {
  // Few facilities and costs in 0..5: most events share their instant.
  workload::UniformParams p;
  p.num_facilities = 6;
  p.num_clients = 20;
  p.client_degree = 3;
  for (std::uint64_t seed = 1; seed <= 500; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    expect_matches_reference(integer_cost_instance(p, 20.0, 4.0, seed));
  }
}

TEST(DualAscentOrder, MatchesReferenceOnEveryFamily) {
  for (const workload::Family family :
       {workload::Family::kUniform, workload::Family::kEuclidean,
        workload::Family::kPowerLaw, workload::Family::kGreedyTight,
        workload::Family::kStar}) {
    SCOPED_TRACE(workload::family_name(family));
    expect_matches_reference(workload::make_family_instance(family, 300, 3));
  }
  SCOPED_TRACE("metric 32");
  expect_matches_reference(metric_instance(32, 2));
}

TEST(DualAscentOrder, SimultaneousTightEventsWitnessTheSmallerId) {
  // Client 0 reaches F0 (budget 4, shared with client 1) and F1 (budget 2)
  // at t=1; both budgets run out at t = 1 + 4/2 = 1 + 2/1 = 3. F0 goes
  // first: it freezes both clients, and F1, left without payers, never
  // goes tight.
  fl::InstanceBuilder b;
  const auto f0 = b.add_facility(4.0);
  const auto f1 = b.add_facility(2.0);
  const auto c0 = b.add_client();
  const auto c1 = b.add_client();
  b.connect(f1, c0, 1.0);
  b.connect(f0, c0, 1.0);
  b.connect(f0, c1, 1.0);
  const DualAscentResult dual = dual_ascent_bound(b.build());
  EXPECT_EQ(dual.witness, (std::vector<fl::FacilityId>{0, 0}));
  EXPECT_EQ(dual.alpha, (std::vector<double>{3.0, 3.0}));
  EXPECT_EQ(dual.tight_time[0], 3.0);
  EXPECT_EQ(dual.tight_time[1], std::numeric_limits<double>::infinity());
}

TEST(DualAscentOrder, CrossingPrecedesTightEventAtTheSameInstant) {
  // F0 (budget 1) is paid by client 1 from t=0 and goes tight at t=1.
  // Client 0 pays F1 (budget 2) from t=1, so F1 would go tight at t=3,
  // the instant client 0 reaches the already-tight F0. The crossing comes
  // first: F0 freezes client 0, and F1 loses its only payer.
  fl::InstanceBuilder b;
  const auto f0 = b.add_facility(1.0);
  const auto f1 = b.add_facility(2.0);
  const auto c0 = b.add_client();
  const auto c1 = b.add_client();
  b.connect(f0, c1, 0.0);
  b.connect(f1, c0, 1.0);
  b.connect(f0, c0, 3.0);
  const DualAscentResult dual = dual_ascent_bound(b.build());
  EXPECT_EQ(dual.alpha, (std::vector<double>{3.0, 1.0}));
  EXPECT_EQ(dual.witness, (std::vector<fl::FacilityId>{0, 0}));
  EXPECT_EQ(dual.tight_time[0], 1.0);
  EXPECT_EQ(dual.tight_time[1], std::numeric_limits<double>::infinity());
}

TEST(DualAscentOrder, PredictionRoundedBelowTheLatestCrossingFreezesPayers) {
  // F0 has a budget of 2.25 ulp(t) for t = 1e6, and four payers from
  // c = t - ulp(t), so it is predicted tight at c + 0.5625 ulp, which
  // rounds up to t. F1 (budget 3t, three payers from 0) goes tight at t
  // when client 4 reaches it, and freezes three of F0's payers at once.
  // F0's slack at t is -1.75 ulp, so its last payer, client 0, moves its
  // prediction to t - 2 ulp: below client 0's own crossing at c. Client 0
  // must still be found as F0's payer and freeze there.
  const double t = 1e6;
  const double ulp = std::nextafter(t, 2 * t) - t;
  const double c = t - ulp;
  fl::InstanceBuilder b;
  const auto f0 = b.add_facility(2.25 * ulp);
  const auto f1 = b.add_facility(3 * t);
  for (int j = 0; j < 5; ++j) (void)b.add_client();
  for (fl::ClientId j = 0; j < 4; ++j) b.connect(f0, j, c);
  for (fl::ClientId j = 1; j < 4; ++j) b.connect(f1, j, 0.0);
  b.connect(f1, 4, t);
  const fl::Instance inst = b.build();
  const DualAscentResult dual = dual_ascent_bound(inst);
  EXPECT_EQ(dual.alpha, (std::vector<double>{t - 2 * ulp, t, t, t, t}));
  EXPECT_EQ(dual.witness, (std::vector<fl::FacilityId>{0, 1, 1, 1, 1}));
  EXPECT_EQ(dual.tight_time, (std::vector<double>{t - 2 * ulp, t}));
  expect_matches_reference(inst);
}

// ---------------------------------------------------- dual-ascent goldens --

// The bits of a bound's lower_bound, plus an FNV-1a hash over the bits of
// every alpha, tight time and witness in index order.
std::string bound_fingerprint(const DualAscentResult& r) {
  std::uint64_t h = 14695981039346656037ULL;
  const auto mix = [&h](std::uint64_t word) {
    for (int b = 0; b < 8; ++b) {
      h ^= (word >> (8 * b)) & 0xFFU;
      h *= 1099511628211ULL;
    }
  };
  for (double a : r.alpha) mix(std::bit_cast<std::uint64_t>(a));
  for (double t : r.tight_time) mix(std::bit_cast<std::uint64_t>(t));
  for (fl::FacilityId w : r.witness)
    mix(static_cast<std::uint32_t>(w));
  std::ostringstream os;
  os << std::hex << "lb=" << std::bit_cast<std::uint64_t>(r.lower_bound)
     << " hash=" << h;
  return os.str();
}

struct BoundGolden {
  const char* name;
  std::function<fl::Instance()> make;
  const char* fingerprint;
};

// Inputs without exact cost ties. Committed from the bound that ordered
// its events on time alone, before the canonical tie order; any change
// here is a change to every reported approximation ratio.
TEST(DualAscentGolden, TieFreeInputsMatchCommittedBits) {
  using workload::Family;
  const auto family = [](Family f, std::int32_t size, std::uint64_t seed) {
    return [=] { return workload::make_family_instance(f, size, seed); };
  };
  const BoundGolden goldens[] = {
      {"uniform 40 1", family(Family::kUniform, 40, 1),
       "lb=4071309e61d7d134 hash=57e7096219f0e318"},
      {"uniform 500 1", family(Family::kUniform, 500, 1),
       "lb=40ab1c219e3f58a8 hash=f1c130c5235ce3b3"},
      {"euclidean 500 1", family(Family::kEuclidean, 500, 1),
       "lb=40e1b72e4896ff50 hash=f1671c8ad5fc1cb"},
      {"powerlaw 500 1", family(Family::kPowerLaw, 500, 1),
       "lb=40c4d89c80f0a3da hash=ce85536593567ba0"},
      {"greedy-tight 500", family(Family::kGreedyTight, 500, 1),
       "lb=3ff028f5c28f5c3c hash=101e55b83b2069ef"},
      {"star 500 1", family(Family::kStar, 500, 1),
       "lb=408faf2d2559b6a6 hash=c7a59607555caefc"},
      {"metric 32 1", [] { return metric_instance(32, 1); },
       "lb=40b858c83634b3b7 hash=27975b4afffb46f1"},
      {"uniform 20000 701", family(Family::kUniform, 20000, 701),
       "lb=41012fe5e90affae hash=54430a6581e559c7"},
  };
  for (const BoundGolden& g : goldens) {
    SCOPED_TRACE(g.name);
    EXPECT_EQ(bound_fingerprint(dual_ascent_bound(g.make())), g.fingerprint);
  }
}

}  // namespace
}  // namespace dflp::lp
