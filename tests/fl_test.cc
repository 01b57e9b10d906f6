// Unit tests for the UFL instance model, solutions and serialization.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <istream>
#include <limits>
#include <streambuf>
#include <string>
#include <utility>

#include "common/check.h"
#include "fl/instance.h"
#include "fl/serialize.h"
#include "fl/solution.h"
#include "respell.h"

namespace dflp::fl {
namespace {

Instance tiny() {
  // 2 facilities, 3 clients:
  //   F0 (open 10): C0@1, C1@2
  //   F1 (open 5):  C1@4, C2@1
  InstanceBuilder b;
  const FacilityId f0 = b.add_facility(10.0);
  const FacilityId f1 = b.add_facility(5.0);
  const ClientId c0 = b.add_client();
  const ClientId c1 = b.add_client();
  const ClientId c2 = b.add_client();
  b.connect(f0, c0, 1.0);
  b.connect(f0, c1, 2.0);
  b.connect(f1, c1, 4.0);
  b.connect(f1, c2, 1.0);
  return b.build();
}

/// The CheckError message `parse` throws; a test failure when it throws
/// nothing.
std::string error_of(const std::function<void()>& parse) {
  try {
    parse();
  } catch (const CheckError& e) {
    return e.what();
  }
  ADD_FAILURE() << "no CheckError thrown";
  return {};
}

/// Expects `text` to be rejected with a message containing `where` (the
/// line, field and field name) and `what`.
void expect_ufl_error(const std::string& text, const std::string& where,
                      const std::string& what) {
  const std::string msg = error_of([&] { (void)parse_ufl(text); });
  EXPECT_NE(msg.find(where), std::string::npos) << msg;
  EXPECT_NE(msg.find(what), std::string::npos) << msg;
}

TEST(Instance, BasicAccessors) {
  const Instance inst = tiny();
  EXPECT_EQ(inst.num_facilities(), 2);
  EXPECT_EQ(inst.num_clients(), 3);
  EXPECT_EQ(inst.num_edges(), 4u);
  EXPECT_DOUBLE_EQ(inst.opening_cost(0), 10.0);
  EXPECT_DOUBLE_EQ(inst.opening_cost(1), 5.0);
  EXPECT_EQ(inst.max_facility_degree(), 2);
  EXPECT_EQ(inst.max_client_degree(), 2);
}

TEST(Instance, EdgesSortedByCost) {
  const Instance inst = tiny();
  const auto f0 = inst.facility_edges(0);
  ASSERT_EQ(f0.size(), 2u);
  EXPECT_EQ(f0[0].client, 0);
  EXPECT_DOUBLE_EQ(f0[0].cost, 1.0);
  EXPECT_EQ(f0[1].client, 1);

  const auto c1 = inst.client_edges(1);
  ASSERT_EQ(c1.size(), 2u);
  EXPECT_EQ(c1[0].facility, 0);  // cost 2 < 4
  EXPECT_EQ(c1[1].facility, 1);
}

TEST(Instance, ConnectionCostLookup) {
  const Instance inst = tiny();
  EXPECT_DOUBLE_EQ(inst.connection_cost(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(inst.connection_cost(1, 2), 1.0);
  EXPECT_TRUE(std::isinf(inst.connection_cost(1, 0)));
}

TEST(Instance, CostProfileAndRho) {
  const Instance inst = tiny();
  const CostProfile& p = inst.cost_profile();
  EXPECT_DOUBLE_EQ(p.max_value, 10.0);
  EXPECT_DOUBLE_EQ(p.min_positive, 1.0);
  EXPECT_DOUBLE_EQ(p.rho, 10.0);
  EXPECT_DOUBLE_EQ(p.total_opening, 15.0);
  EXPECT_DOUBLE_EQ(p.total_connection, 8.0);
}

TEST(Instance, RhoIsOneForAllZeroCosts) {
  InstanceBuilder b;
  const FacilityId f = b.add_facility(0.0);
  const ClientId c = b.add_client();
  b.connect(f, c, 0.0);
  const Instance inst = b.build();
  EXPECT_DOUBLE_EQ(inst.cost_profile().rho, 1.0);
}

TEST(Instance, OpenAllCost) {
  const Instance inst = tiny();
  // 15 opening + cheapest per client (1 + 2 + 1).
  EXPECT_DOUBLE_EQ(inst.open_all_cost(), 19.0);
}

TEST(Instance, ClientEdgeOffsets) {
  const Instance inst = tiny();
  EXPECT_EQ(inst.client_edge_offset(0), 0u);
  EXPECT_EQ(inst.client_edge_offset(1), 1u);
  EXPECT_EQ(inst.client_edge_offset(2), 3u);
  EXPECT_EQ(inst.total_client_edges(), 4u);
}

TEST(Instance, DescribeMentionsShape) {
  const std::string d = tiny().describe();
  EXPECT_NE(d.find("m=2"), std::string::npos);
  EXPECT_NE(d.find("n=3"), std::string::npos);
}

TEST(InstanceBuilder, RejectsBadInput) {
  InstanceBuilder b;
  EXPECT_THROW(b.add_facility(-1.0), CheckError);
  EXPECT_THROW(b.add_facility(std::numeric_limits<double>::infinity()),
               CheckError);
  const FacilityId f = b.add_facility(1.0);
  const ClientId c = b.add_client();
  EXPECT_THROW(b.connect(f + 5, c, 1.0), CheckError);
  EXPECT_THROW(b.connect(f, c + 5, 1.0), CheckError);
  EXPECT_THROW(b.connect(f, c, -2.0), CheckError);
}

TEST(InstanceBuilder, RejectsDuplicateEdges) {
  InstanceBuilder b;
  const FacilityId f = b.add_facility(1.0);
  const ClientId c = b.add_client();
  b.connect(f, c, 1.0);
  b.connect(f, c, 2.0);
  EXPECT_THROW(b.build(), CheckError);
}

TEST(InstanceBuilder, DuplicateEdgeErrorNamesSmallestPair) {
  InstanceBuilder b;
  for (int i = 0; i < 4; ++i) (void)b.add_facility(1.0);
  for (int j = 0; j < 8; ++j) (void)b.add_client();
  for (ClientId j = 0; j < 8; ++j) b.connect(0, j, 1.0);
  // Duplicates under facilities 3, 1 and 2, added out of order; the
  // smallest pair is (1, 3).
  b.connect(3, 0, 2.0);
  b.connect(3, 0, 3.0);
  b.connect(1, 7, 2.0);
  b.connect(2, 5, 2.0);
  b.connect(1, 7, 3.0);
  b.connect(2, 5, 3.0);
  b.connect(1, 3, 2.0);
  b.connect(1, 3, 3.0);
  const std::string msg = error_of([&] { (void)b.build(); });
  EXPECT_NE(msg.find("duplicate edge (facility=1, client=3)"),
            std::string::npos)
      << msg;
}

TEST(InstanceBuilder, RejectsNonFiniteTotalCost) {
  InstanceBuilder b;
  const FacilityId f0 = b.add_facility(1e308);
  const FacilityId f1 = b.add_facility(1e308);
  const ClientId c = b.add_client();
  b.connect(f0, c, 1.0);
  b.connect(f1, c, 1.0);
  const std::string msg = error_of([&] { (void)b.build(); });
  EXPECT_NE(msg.find("total cost is not finite"), std::string::npos) << msg;
}

TEST(InstanceBuilder, RejectsIsolatedClient) {
  InstanceBuilder b;
  b.add_facility(1.0);
  b.add_client();
  EXPECT_THROW(b.build(), CheckError);
}

TEST(InstanceBuilder, RejectsEmptySides) {
  {
    InstanceBuilder b;
    b.add_client();
    EXPECT_THROW(b.build(), CheckError);
  }
  {
    InstanceBuilder b;
    b.add_facility(1.0);
    EXPECT_THROW(b.build(), CheckError);
  }
}

TEST(InstanceBuilder, RejectsMoreEdgesThanItsOffsetsHold) {
  // The check comes before any allocation, so these reservations cost
  // nothing; reserving the limit itself would allocate 32 GiB.
  InstanceBuilder b;
  std::string msg = error_of([&] { b.reserve(1, 1, std::size_t{1} << 31); });
  EXPECT_NE(msg.find("2147483648 edges pass the 2147483647 that an "
                     "instance's int32 offsets hold"),
            std::string::npos)
      << msg;
  msg = error_of(
      [&] { b.reserve(1, 1, std::numeric_limits<std::size_t>::max()); });
  EXPECT_NE(msg.find("18446744073709551615 edges pass"), std::string::npos)
      << msg;
  // A rejected hint leaves the builder as it was.
  b.reserve(1, 1, 1);
  b.connect(b.add_facility(1.0), b.add_client(), 1.0);
  EXPECT_EQ(b.build().num_edges(), 1u);
}

// ------------------------------------------------------------- solution --

TEST(IntegralSolution, CostAndFeasibility) {
  const Instance inst = tiny();
  IntegralSolution sol(inst);
  EXPECT_FALSE(sol.is_feasible(inst));

  sol.open(0);
  sol.open(1);
  sol.assign(0, 0);
  sol.assign(1, 0);
  sol.assign(2, 1);
  std::string why;
  EXPECT_TRUE(sol.is_feasible(inst, &why)) << why;
  EXPECT_DOUBLE_EQ(sol.cost(inst), 15.0 + 1.0 + 2.0 + 1.0);
  EXPECT_EQ(sol.num_open(), 2);
}

TEST(IntegralSolution, DetectsClosedAssignment) {
  const Instance inst = tiny();
  IntegralSolution sol(inst);
  sol.open(0);
  sol.assign(0, 0);
  sol.assign(1, 0);
  sol.assign(2, 1);  // facility 1 closed
  std::string why;
  EXPECT_FALSE(sol.is_feasible(inst, &why));
  EXPECT_NE(why.find("closed"), std::string::npos);
}

TEST(IntegralSolution, DetectsNonAdjacentAssignment) {
  const Instance inst = tiny();
  IntegralSolution sol(inst);
  sol.open(1);
  sol.assign(0, 1);  // F1 cannot serve C0
  sol.assign(1, 1);
  sol.assign(2, 1);
  std::string why;
  EXPECT_FALSE(sol.is_feasible(inst, &why));
  EXPECT_NE(why.find("non-adjacent"), std::string::npos);
}

TEST(IntegralSolution, AssignGreedilyPicksCheapestOpen) {
  const Instance inst = tiny();
  IntegralSolution sol(inst);
  sol.open(0);
  sol.open(1);
  EXPECT_EQ(sol.assign_greedily(inst), 3);
  EXPECT_EQ(sol.assignment(1), 0);  // cost 2 beats 4
}

TEST(IntegralSolution, PruneUnusedClosesIdleFacilities) {
  const Instance inst = tiny();
  IntegralSolution sol(inst);
  sol.open(0);
  sol.open(1);
  sol.assign(0, 0);
  sol.assign(1, 0);
  sol.assign(2, 1);
  EXPECT_EQ(sol.prune_unused(inst), 0);
  // Reassign client 2's work away and facility 1 becomes unused… but that
  // would be infeasible; instead test with an genuinely unused facility.
  IntegralSolution sol2(inst);
  sol2.open(0);
  sol2.open(1);
  sol2.assign(0, 0);
  sol2.assign(1, 0);
  sol2.assign(2, 1);
  sol2.open(0);  // idempotent
  EXPECT_EQ(sol2.num_open(), 2);
}

TEST(IntegralSolution, CostOnUnassignedThrows) {
  const Instance inst = tiny();
  IntegralSolution sol(inst);
  sol.open(0);
  EXPECT_THROW((void)sol.cost(inst), CheckError);
}

TEST(FractionalSolution, ValueAndFeasibility) {
  const Instance inst = tiny();
  FractionalSolution frac(inst);
  // Fully open both facilities, each client served by its cheapest edge.
  frac.y = {1.0, 1.0};
  // client edge order: c0:[f0], c1:[f0,f1], c2:[f1]
  frac.x = {1.0, 1.0, 0.0, 1.0};
  std::string why;
  EXPECT_TRUE(frac.is_feasible(inst, 1e-9, &why)) << why;
  EXPECT_DOUBLE_EQ(frac.value(inst), 15.0 + 1.0 + 2.0 + 1.0);
}

TEST(FractionalSolution, DetectsUndercoverage) {
  const Instance inst = tiny();
  FractionalSolution frac(inst);
  frac.y = {1.0, 1.0};
  frac.x = {0.4, 1.0, 0.0, 1.0};
  EXPECT_FALSE(frac.is_feasible(inst));
}

TEST(FractionalSolution, DetectsXAboveY) {
  const Instance inst = tiny();
  FractionalSolution frac(inst);
  frac.y = {0.5, 1.0};
  frac.x = {1.0, 1.0, 0.0, 1.0};  // x for c0@f0 exceeds y0
  std::string why;
  EXPECT_FALSE(frac.is_feasible(inst, 1e-9, &why));
  EXPECT_NE(why.find("y_i"), std::string::npos);
}

TEST(FractionalSolution, HalfAndHalfCoverageIsFeasible) {
  const Instance inst = tiny();
  FractionalSolution frac(inst);
  frac.y = {0.5, 0.5};
  frac.x = {0.5, 0.5, 0.5, 0.5};
  // c0 and c2 each have a single edge with x=0.5: undercovered.
  EXPECT_FALSE(frac.is_feasible(inst));
  frac.y = {1.0, 1.0};
  frac.x = {1.0, 0.5, 0.5, 1.0};  // c1 split across both facilities
  EXPECT_TRUE(frac.is_feasible(inst));
}

TEST(FractionalSolution, RejectsAShapeOfAnotherInstance) {
  const Instance inst = tiny();
  FractionalSolution frac(inst);
  frac.y = {1.0, 1.0};
  frac.x = {1.0, 1.0, 0.0};  // one x short
  std::string why;
  EXPECT_FALSE(frac.is_feasible(inst, 1e-9, &why));
  EXPECT_EQ(why, "fractional solution shape does not match instance");
}

TEST(FractionalSolution, RejectsYOutsideTheUnitInterval) {
  const Instance inst = tiny();
  FractionalSolution frac(inst);
  frac.y = {1.0, 1.5};
  frac.x = {1.0, 1.0, 0.0, 1.0};
  std::string why;
  EXPECT_FALSE(frac.is_feasible(inst, 1e-9, &why));
  EXPECT_EQ(why, "y[1]=1.5 outside [0,1]");
}

TEST(FractionalSolution, RejectsNegativeX) {
  const Instance inst = tiny();
  FractionalSolution frac(inst);
  frac.y = {1.0, 1.0};
  frac.x = {1.0, 1.0, -0.5, 1.0};
  std::string why;
  EXPECT_FALSE(frac.is_feasible(inst, 1e-9, &why));
  EXPECT_EQ(why, "x<0 on client 1");
}

// ------------------------------------------------------------ serialize --

TEST(Serialize, RoundTripPreservesEverything) {
  const Instance inst = tiny();
  const std::string text = to_text(inst);
  std::vector<std::string> inputs = respellings(text);
  inputs.insert(inputs.begin(), text);
  for (const std::string& input : inputs) {
    SCOPED_TRACE(input);
    const Instance back = parse_ufl(input);
    EXPECT_EQ(back.num_facilities(), inst.num_facilities());
    EXPECT_EQ(back.num_clients(), inst.num_clients());
    EXPECT_EQ(back.num_edges(), inst.num_edges());
    for (FacilityId i = 0; i < inst.num_facilities(); ++i)
      EXPECT_DOUBLE_EQ(back.opening_cost(i), inst.opening_cost(i));
    for (ClientId j = 0; j < inst.num_clients(); ++j) {
      const auto a = inst.client_edges(j);
      const auto b = back.client_edges(j);
      ASSERT_EQ(a.size(), b.size());
      for (std::size_t k = 0; k < a.size(); ++k) {
        EXPECT_EQ(a[k].facility, b[k].facility);
        EXPECT_DOUBLE_EQ(a[k].cost, b[k].cost);
      }
    }
  }
}

/// A stream buffer that hands out its text 4 KiB per refill and announces
/// nothing in advance (in_avail() is 0), as a pipe does.
class PipeBuf : public std::streambuf {
 public:
  explicit PipeBuf(std::string text) : text_(std::move(text)) {}

 protected:
  int_type underflow() override {
    if (served_ == text_.size()) return traits_type::eof();
    const std::size_t n = std::min<std::size_t>(4096, text_.size() - served_);
    char* begin = text_.data() + served_;
    setg(begin, begin, begin + n);
    served_ += n;
    return traits_type::to_int_type(*begin);
  }

 private:
  std::string text_;
  std::size_t served_ = 0;
};

TEST(Serialize, ReadsAnUnsizedStreamPastTheFirstChunk) {
  // 2000 clients with three edges each: about 100 KB, past the 64 KiB
  // first read, so read_all must grow its buffer.
  InstanceBuilder b;
  for (int i = 0; i < 50; ++i) (void)b.add_facility(10.0 + i);
  for (int j = 0; j < 2000; ++j) {
    const ClientId c = b.add_client();
    for (int k = 0; k < 3; ++k)
      b.connect((j + 17 * k) % 50, c, 1.0 + 0.25 * ((j + k) % 7));
  }
  const std::string text = to_text(b.build());
  ASSERT_GT(text.size(), std::size_t{1} << 16);
  PipeBuf buf(text);
  std::istream in(&buf);
  ASSERT_EQ(buf.in_avail(), 0);
  EXPECT_EQ(to_text(read_instance(in)), text);
  EXPECT_TRUE(in.eof());
}

TEST(Serialize, HeaderIsStable) {
  const std::string text = to_text(tiny());
  EXPECT_EQ(text.rfind("dflp-ufl 1\n", 0), 0u);
  EXPECT_NE(text.find("2 3 4"), std::string::npos);
}

TEST(Serialize, RejectsGarbage) {
  EXPECT_THROW(parse_ufl("not an instance"), CheckError);
  EXPECT_THROW(parse_ufl("dflp-ufl 2\n1 1 0\n1.0\n"), CheckError);
  EXPECT_THROW(parse_ufl("dflp-ufl 1\n0 1 0\n"), CheckError);
}

TEST(Serialize, RejectsTruncatedEdges) {
  EXPECT_THROW(parse_ufl("dflp-ufl 1\n1 1 1\n5.0\n"), CheckError);
  expect_ufl_error("dflp-ufl 1\n1 1 1\n5.0\n0 0",
                   "line 4, field 3 (connection cost)",
                   "unexpected end of input");
}

TEST(Serialize, RejectsIdsBeyondTheInt32Range) {
  // 2^32 must not narrow to facility 0.
  expect_ufl_error("dflp-ufl 1\n2 1 1\n1 2\n4294967296 0 1.5\n",
                   "line 4, field 1 (facility id)",
                   "'4294967296' is out of range [0, 1]");
  expect_ufl_error("dflp-ufl 1\n1 2 2\n1\n0 0 1\n0 -1 1\n",
                   "line 5, field 2 (client id)", "out of range [0, 1]");
}

TEST(Serialize, RejectsHeaderCountsBeyondTheInt32Range) {
  // Rejected at the header, before any add_client() call.
  expect_ufl_error("dflp-ufl 1\n1 3000000000 0\n1\n",
                   "line 2, field 2 (client count)",
                   "'3000000000' is out of range [1, 2147483647]");
}

TEST(Serialize, RejectsMoreClientsThanEdges) {
  expect_ufl_error("dflp-ufl 1\n1 5 2\n1\n0 0 1\n0 1 1\n",
                   "line 2, field 3 (edge count)",
                   "edges cannot cover 5 clients");
}

TEST(Serialize, RejectsCountsTheInputCannotHold) {
  expect_ufl_error("dflp-ufl 1\n2000000000 2000000000 2000000000\n1\n",
                   "line 2, field 3 (edge count)", "bytes are left");
}

TEST(Serialize, RejectsNonFiniteAndNegativeCostsByLocation) {
  expect_ufl_error("dflp-ufl 1\n2 1 2\n1 nan\n0 0 1\n1 0 1\n",
                   "line 3, field 2 (opening cost)",
                   "'nan' is not a finite non-negative number");
  expect_ufl_error("dflp-ufl 1\n1 1 1\n1\n0 0 inf\n",
                   "line 4, field 3 (connection cost)",
                   "'inf' is not a finite non-negative number");
  expect_ufl_error("dflp-ufl 1\n1 1 1\n1\n0 0 -2\n",
                   "line 4, field 3 (connection cost)",
                   "'-2' is not a finite non-negative number");
  expect_ufl_error("dflp-ufl 1\n1 1 1\n1e400\n0 0 1\n",
                   "line 3, field 1 (opening cost)",
                   "'1e400' is out of the range of a double");
  // Each cost is finite; their total is not.
  expect_ufl_error("dflp-ufl 1\n2 1 2\n1e308 1e308\n0 0 1\n1 0 1\n",
                   "line 3, field 2 (opening cost)",
                   "'1e308' makes the total cost overflow a double");
  expect_ufl_error("dflp-ufl 1\n1 1 1\n1\n0 0 1.5x\n",
                   "line 4, field 3 (connection cost)",
                   "'1.5x' is not a number");
}

TEST(Serialize, RejectsRepeatedEdgesByLine) {
  // Line 6 repeats the edge (0, 0) of line 4.
  const std::string ufl =
      "dflp-ufl 1\n2 2 3\n1.0 2.0\n0 0 1.0\n1 1 1.0\n0 0 2.0\n";
  expect_ufl_error(ufl, "line 6, field 1 (facility id)",
                   "edge (0, 0) repeats line 4");
  // One line may hold several edges.
  expect_ufl_error("dflp-ufl 1\n2 2 3\n1 2\n1 1 1 0 0 1 1 1 2\n",
                   "line 4, field 7 (facility id)",
                   "edge (1, 1) repeats line 4");
  // A client without edges is no one line's fault: build() reports it.
  const std::string msg = error_of([] {
    (void)parse_ufl("dflp-ufl 1\n2 2 2\n1 1\n0 0 1\n1 0 1\n");
  });
  EXPECT_NE(msg.find("client 1 has no candidate facility"), std::string::npos)
      << msg;
}

TEST(Serialize, RejectsDataAfterTheLastField) {
  const std::string text = to_text(tiny());
  expect_ufl_error(text + "garbage\n", "line 8, field 1 (end of input)",
                   "'garbage' follows the last field");
  EXPECT_THROW((void)parse_ufl(text + to_text(tiny())), CheckError);
  EXPECT_NO_THROW((void)parse_ufl(text + " \r\n\t\n"));
}

}  // namespace
}  // namespace dflp::fl
