#include "fl/ftfp.h"

#include <algorithm>
#include <limits>
#include <ostream>
#include <sstream>

#include "common/check.h"
#include "fl/serialize.h"
#include "fl/text_scanner.h"

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
    std::vector<FacilityId> sorted(list.begin(), list.end());
    std::sort(sorted.begin(), sorted.end());
    if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
      std::ostringstream os;
      os << "client " << j << " assigned to a facility twice";
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

IntegralSolution FtfpSolution::primaries(const FtfpInstance& inst) const {
  IntegralSolution primary(inst.base);
  for (FacilityId i = 0; i < inst.base.num_facilities(); ++i)
    if (is_open(i)) primary.open(i);
  for (ClientId j = 0; j < inst.base.num_clients(); ++j) {
    FacilityId best = kNoFacility;
    Cost best_cost = std::numeric_limits<Cost>::infinity();
    for (const FacilityId i : assignments(j)) {
      const Cost c = inst.base.connection_cost(i, j);
      if (c < best_cost || (c == best_cost && i < best)) {
        best = i;
        best_cost = c;
      }
    }
    if (best != kNoFacility) primary.assign(j, best);
  }
  return primary;
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

void write_ftfp_instance(std::ostream& os, const FtfpInstance& inst) {
  validate(inst);
  os << "dflp-ftfp 1\n";
  write_instance(os, inst.base);
  for (std::size_t j = 0; j < inst.requirement.size(); ++j)
    os << inst.requirement[j] << (j + 1 < inst.requirement.size() ? ' ' : '\n');
}

std::string ftfp_to_text(const FtfpInstance& inst) {
  std::ostringstream os;
  write_ftfp_instance(os, inst);
  return os.str();
}

namespace {

FtfpInstance scan_ftfp_instance(TextScanner& in) {
  in.header("dflp-ftfp");
  FtfpInstance inst;
  inst.base = scan_instance(in);
  inst.requirement.resize(static_cast<std::size_t>(inst.base.num_clients()));
  for (std::int32_t& r : inst.requirement)
    r = static_cast<std::int32_t>(in.integer(
        "requirement", 1, std::numeric_limits<std::int32_t>::max()));
  validate(inst);
  return inst;
}

}  // namespace

FtfpInstance read_ftfp_instance(std::istream& is) {
  return scan_all(read_all(is), scan_ftfp_instance);
}

FtfpInstance ftfp_from_text(const std::string& text) {
  return scan_all(text, scan_ftfp_instance);
}

ReplicatedUfl replicate_demands(const FtfpInstance& inst) {
  validate(inst);
  ReplicatedUfl out;
  std::size_t total_copies = 0;
  std::size_t total_edges = 0;
  for (ClientId j = 0; j < inst.base.num_clients(); ++j) {
    const auto r =
        static_cast<std::size_t>(inst.requirement[static_cast<std::size_t>(j)]);
    total_copies += r;
    total_edges += r * inst.base.client_edges(j).size();
  }

  InstanceBuilder builder;
  builder.reserve(inst.base.num_facilities(),
                  static_cast<std::int32_t>(total_copies), total_edges);
  for (FacilityId i = 0; i < inst.base.num_facilities(); ++i)
    builder.add_facility(inst.base.opening_cost(i));
  out.copy_owner.reserve(total_copies);
  for (ClientId j = 0; j < inst.base.num_clients(); ++j) {
    const std::int32_t r = inst.requirement[static_cast<std::size_t>(j)];
    for (std::int32_t c = 0; c < r; ++c) {
      const ClientId copy = builder.add_client();
      out.copy_owner.push_back(j);
      for (const ClientEdge& e : inst.base.client_edges(j))
        builder.connect(e.facility, copy, e.cost);
    }
  }
  out.instance = builder.build();
  return out;
}

FtfpSolution ftfp_from_replicated(const FtfpInstance& inst,
                                  const ReplicatedUfl& replicated,
                                  const IntegralSolution& ufl_solution) {
  std::string why;
  DFLP_CHECK_MSG(ufl_solution.is_feasible(replicated.instance, &why),
                 "replicated UFL solution infeasible: " << why);
  FtfpSolution out(inst);
  for (FacilityId i = 0; i < replicated.instance.num_facilities(); ++i)
    if (ufl_solution.is_open(i)) out.open(i);

  // Collect the distinct facilities each original client's copies landed on.
  std::vector<std::vector<FacilityId>> chosen(
      static_cast<std::size_t>(inst.base.num_clients()));
  for (ClientId copy = 0; copy < replicated.instance.num_clients(); ++copy) {
    const ClientId owner =
        replicated.copy_owner[static_cast<std::size_t>(copy)];
    auto& list = chosen[static_cast<std::size_t>(owner)];
    const FacilityId i = ufl_solution.assignment(copy);
    if (std::find(list.begin(), list.end(), i) == list.end())
      list.push_back(i);
  }

  for (ClientId j = 0; j < inst.base.num_clients(); ++j) {
    auto& list = chosen[static_cast<std::size_t>(j)];
    const std::int32_t r = inst.requirement[static_cast<std::size_t>(j)];
    // Repair pass 1: top up from already-open adjacent facilities, in
    // ascending connection cost (client_edges order).
    if (static_cast<std::int32_t>(list.size()) < r) {
      for (const ClientEdge& e : inst.base.client_edges(j)) {
        if (static_cast<std::int32_t>(list.size()) >= r) break;
        if (!out.is_open(e.facility)) continue;
        if (std::find(list.begin(), list.end(), e.facility) != list.end())
          continue;
        list.push_back(e.facility);
      }
    }
    // Repair pass 2: open the cheapest unused neighbours for what remains.
    if (static_cast<std::int32_t>(list.size()) < r) {
      for (const ClientEdge& e : inst.base.client_edges(j)) {
        if (static_cast<std::int32_t>(list.size()) >= r) break;
        if (std::find(list.begin(), list.end(), e.facility) != list.end())
          continue;
        out.open(e.facility);
        list.push_back(e.facility);
      }
    }
    for (const FacilityId i : list) out.assign(j, i);
  }

  DFLP_CHECK_MSG(out.is_feasible(inst, &why),
                 "replication map-back must be feasible: " << why);
  return out;
}

FtfpSolution solve_ftfp_by_replication(
    const FtfpInstance& inst,
    const std::function<IntegralSolution(const Instance&)>& solve) {
  const ReplicatedUfl replicated = replicate_demands(inst);
  return ftfp_from_replicated(inst, replicated, solve(replicated.instance));
}

}  // namespace dflp::fl
