#include "fl/ftfp.h"

#include <algorithm>
#include <limits>
#include <sstream>

#include "common/check.h"

namespace dflp::fl {

std::int32_t FtfpInstance::max_requirement() const {
  std::int32_t r_max = 0;
  for (const std::int32_t r : requirement) r_max = std::max(r_max, r);
  return r_max;
}

std::string FtfpInstance::describe() const {
  std::ostringstream os;
  os << base.describe() << ", r_max=" << max_requirement();
  return os.str();
}

void validate(const FtfpInstance& inst) {
  DFLP_CHECK_MSG(static_cast<std::int32_t>(inst.requirement.size()) ==
                     inst.base.num_clients(),
                 "requirement vector has " << inst.requirement.size()
                                           << " entries for "
                                           << inst.base.num_clients()
                                           << " clients");
  for (ClientId j = 0; j < inst.base.num_clients(); ++j) {
    const std::int32_t r = inst.requirement[static_cast<std::size_t>(j)];
    DFLP_CHECK_MSG(r >= 1, "client " << j << " requires " << r
                                     << " facilities; must be >= 1");
    const auto degree =
        static_cast<std::int32_t>(inst.base.client_edges(j).size());
    DFLP_CHECK_MSG(r <= degree,
                   "client " << j << " requires " << r
                             << " distinct facilities but reaches only "
                             << degree);
  }
}

FtfpInstance with_uniform_requirement(Instance base, std::int32_t r) {
  DFLP_CHECK_MSG(r >= 1, "uniform requirement must be >= 1, got " << r);
  FtfpInstance inst;
  inst.requirement.resize(static_cast<std::size_t>(base.num_clients()));
  for (ClientId j = 0; j < base.num_clients(); ++j) {
    inst.requirement[static_cast<std::size_t>(j)] = std::min(
        r, static_cast<std::int32_t>(base.client_edges(j).size()));
  }
  inst.base = std::move(base);
  return inst;
}

FtfpSolution::FtfpSolution(const FtfpInstance& inst)
    : open_(static_cast<std::size_t>(inst.base.num_facilities()), 0),
      assign_(static_cast<std::size_t>(inst.base.num_clients())) {}

void FtfpSolution::open(FacilityId i) {
  auto& flag = open_.at(static_cast<std::size_t>(i));
  if (!flag) {
    flag = 1;
    ++num_open_;
  }
}

bool FtfpSolution::is_open(FacilityId i) const {
  return open_.at(static_cast<std::size_t>(i)) != 0;
}

void FtfpSolution::assign(ClientId j, FacilityId i) {
  auto& list = assign_.at(static_cast<std::size_t>(j));
  DFLP_CHECK_MSG(std::find(list.begin(), list.end(), i) == list.end(),
                 "client " << j << " already assigned to facility " << i
                           << " (FTFP assignments must be distinct)");
  list.push_back(i);
}

std::span<const FacilityId> FtfpSolution::assignments(ClientId j) const {
  return assign_.at(static_cast<std::size_t>(j));
}

int FtfpSolution::coverage(ClientId j) const {
  return static_cast<int>(assign_.at(static_cast<std::size_t>(j)).size());
}

Cost FtfpSolution::cost(const FtfpInstance& inst) const {
  Cost total = 0.0;
  for (FacilityId i = 0; i < inst.base.num_facilities(); ++i)
    if (is_open(i)) total += inst.base.opening_cost(i);
  for (ClientId j = 0; j < inst.base.num_clients(); ++j)
    for (const FacilityId i : assignments(j))
      total += inst.base.connection_cost(i, j);
  return total;
}

bool FtfpSolution::is_feasible(const FtfpInstance& inst,
                               std::string* why) const {
  const auto fail = [&](const std::string& reason) {
    if (why != nullptr) *why = reason;
    return false;
  };
  if (static_cast<std::int32_t>(assign_.size()) != inst.base.num_clients())
    return fail("solution sized for a different instance");
  for (ClientId j = 0; j < inst.base.num_clients(); ++j) {
    const auto& list = assign_[static_cast<std::size_t>(j)];
    const std::int32_t r = inst.requirement[static_cast<std::size_t>(j)];
    if (static_cast<std::int32_t>(list.size()) < r) {
      std::ostringstream os;
      os << "client " << j << " covered by " << list.size()
         << " facilities; requires " << r;
      return fail(os.str());
    }
    for (const FacilityId i : list) {
      if (!is_open(i)) {
        std::ostringstream os;
        os << "client " << j << " assigned to closed facility " << i;
        return fail(os.str());
      }
      if (inst.base.connection_cost(i, j) ==
          std::numeric_limits<Cost>::infinity()) {
        std::ostringstream os;
        os << "client " << j << " assigned to non-adjacent facility " << i;
        return fail(os.str());
      }
    }
  }
  return true;
}

std::string FtfpSolution::fingerprint(const FtfpInstance& inst) const {
  std::ostringstream os;
  os << "open:";
  for (FacilityId i = 0; i < inst.base.num_facilities(); ++i)
    if (is_open(i)) os << i << ",";
  os << ";assign:";
  for (ClientId j = 0; j < inst.base.num_clients(); ++j) {
    os << "[";
    for (const FacilityId i : assignments(j)) os << i << ",";
    os << "]";
  }
  return os.str();
}

}  // namespace dflp::fl
