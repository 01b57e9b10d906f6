#include "fl/solution.h"

#include <cmath>
#include <limits>
#include <sstream>

#include "common/check.h"

namespace dflp::fl {

IntegralSolution::IntegralSolution(const Instance& inst)
    : open_(static_cast<std::size_t>(inst.num_facilities()), 0),
      assign_(static_cast<std::size_t>(inst.num_clients()), kNoFacility) {}

void IntegralSolution::open(FacilityId i) {
  auto& flag = open_.at(static_cast<std::size_t>(i));
  if (!flag) {
    flag = 1;
    ++num_open_;
  }
}

bool IntegralSolution::is_open(FacilityId i) const {
  return open_.at(static_cast<std::size_t>(i)) != 0;
}

void IntegralSolution::assign(ClientId j, FacilityId i) {
  assign_.at(static_cast<std::size_t>(j)) = i;
}

FacilityId IntegralSolution::assignment(ClientId j) const {
  return assign_.at(static_cast<std::size_t>(j));
}

int IntegralSolution::assign_greedily(const Instance& inst) {
  int assigned = 0;
  for (ClientId j = 0; j < inst.num_clients(); ++j) {
    for (const ClientEdge& e : inst.client_edges(j)) {  // cost-sorted
      if (is_open(e.facility)) {
        assign_[static_cast<std::size_t>(j)] = e.facility;
        ++assigned;
        break;
      }
    }
  }
  return assigned;
}

int IntegralSolution::prune_unused(const Instance& inst) {
  std::vector<std::uint8_t> used(open_.size(), 0);
  for (ClientId j = 0; j < inst.num_clients(); ++j) {
    const FacilityId i = assign_[static_cast<std::size_t>(j)];
    if (i != kNoFacility) used[static_cast<std::size_t>(i)] = 1;
  }
  int closed = 0;
  for (std::size_t i = 0; i < open_.size(); ++i) {
    if (open_[i] && !used[i]) {
      open_[i] = 0;
      --num_open_;
      ++closed;
    }
  }
  return closed;
}

Cost IntegralSolution::cost(const Instance& inst) const {
  Cost total = 0.0;
  for (FacilityId i = 0; i < inst.num_facilities(); ++i)
    if (is_open(i)) total += inst.opening_cost(i);
  for (ClientId j = 0; j < inst.num_clients(); ++j) {
    const FacilityId i = assign_[static_cast<std::size_t>(j)];
    DFLP_CHECK_MSG(i != kNoFacility,
                   "cost() on infeasible solution: client " << j
                                                            << " unassigned");
    const Cost c = inst.connection_cost(i, j);
    DFLP_CHECK_MSG(std::isfinite(c), "client " << j
                                               << " assigned to non-adjacent "
                                               << i);
    total += c;
  }
  return total;
}

bool IntegralSolution::is_feasible(const Instance& inst,
                                   std::string* why) const {
  auto fail = [&](const std::string& reason) {
    if (why != nullptr) *why = reason;
    return false;
  };
  if (open_.size() != static_cast<std::size_t>(inst.num_facilities()) ||
      assign_.size() != static_cast<std::size_t>(inst.num_clients()))
    return fail("solution shape does not match instance");
  for (ClientId j = 0; j < inst.num_clients(); ++j) {
    const FacilityId i = assign_[static_cast<std::size_t>(j)];
    if (i == kNoFacility) {
      std::ostringstream os;
      os << "client " << j << " unassigned";
      return fail(os.str());
    }
    if (!is_open(i)) {
      std::ostringstream os;
      os << "client " << j << " assigned to closed facility " << i;
      return fail(os.str());
    }
    if (!std::isfinite(inst.connection_cost(i, j))) {
      std::ostringstream os;
      os << "client " << j << " assigned to non-adjacent facility " << i;
      return fail(os.str());
    }
  }
  return true;
}

double FractionalSolution::value(const Instance& inst) const {
  DFLP_CHECK(y.size() == static_cast<std::size_t>(inst.num_facilities()));
  DFLP_CHECK(x.size() == inst.total_client_edges());
  double total = 0.0;
  for (FacilityId i = 0; i < inst.num_facilities(); ++i)
    total += inst.opening_cost(i) * y[static_cast<std::size_t>(i)];
  for (ClientId j = 0; j < inst.num_clients(); ++j) {
    const auto edges = inst.client_edges(j);
    const std::size_t base = inst.client_edge_offset(j);
    for (std::size_t k = 0; k < edges.size(); ++k)
      total += edges[k].cost * x[base + k];
  }
  return total;
}

bool FractionalSolution::is_feasible(const Instance& inst, double tol,
                                     std::string* why) const {
  auto fail = [&](const std::string& reason) {
    if (why != nullptr) *why = reason;
    return false;
  };
  if (y.size() != static_cast<std::size_t>(inst.num_facilities()) ||
      x.size() != inst.total_client_edges())
    return fail("fractional solution shape does not match instance");
  for (std::size_t i = 0; i < y.size(); ++i) {
    if (!(y[i] >= -tol && y[i] <= 1.0 + tol)) {
      std::ostringstream os;
      os << "y[" << i << "]=" << y[i] << " outside [0,1]";
      return fail(os.str());
    }
  }
  for (ClientId j = 0; j < inst.num_clients(); ++j) {
    const auto edges = inst.client_edges(j);
    const std::size_t base = inst.client_edge_offset(j);
    double cov = 0.0;
    for (std::size_t k = 0; k < edges.size(); ++k) {
      const double xv = x[base + k];
      const double yv = y[static_cast<std::size_t>(edges[k].facility)];
      if (xv < -tol) {
        std::ostringstream os;
        os << "x<0 on client " << j;
        return fail(os.str());
      }
      if (xv > yv + tol) {
        std::ostringstream os;
        os << "x_ij=" << xv << " > y_i=" << yv << " on client " << j
           << " facility " << edges[k].facility;
        return fail(os.str());
      }
      cov += xv;
    }
    if (cov < 1.0 - tol) {
      std::ostringstream os;
      os << "client " << j << " covered only " << cov;
      return fail(os.str());
    }
  }
  return true;
}

}  // namespace dflp::fl
