// Fault-Tolerant Facility Placement (FTFP): the coverage generalization of
// UFL in the style of Yan & Chrobak (arXiv:1205.1281).
//
// Each client j carries a coverage requirement r_j >= 1 and must be
// assigned r_j *distinct* open facilities; the objective is the opening
// cost of the open set plus the connection cost of every assignment. With
// all r_j = 1 the problem is exactly UFL. The point of the generalization
// is operational: a placement with r_j >= 2 keeps every client served when
// any single opened facility crashes, so placement-level redundancy can be
// traded against transport-level recovery (harness/survive.h measures the
// trade; E14 commits the numbers).
//
// This module holds the problem data (`FtfpInstance`), the coverage-aware
// solution type (`FtfpSolution`), cost accounting, plain-text
// serialization, and the demand-replication reduction to UFL: client j
// becomes r_j unit-demand copies, any UFL solution on the replicated
// instance maps back with a distinctness repair, and any UFL lower bound
// on the replicated instance is a valid FTFP lower bound (an FTFP solution
// assigns the copies of j to its r_j distinct facilities at equal cost).
#pragma once

#include <functional>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "fl/instance.h"
#include "fl/solution.h"

namespace dflp::fl {

/// An FTFP instance: the base UFL data plus per-client coverage
/// requirements. Immutable after `validate()` passes.
struct FtfpInstance {
  Instance base;
  std::vector<std::int32_t> requirement;  ///< size = base.num_clients()

  /// Largest requirement — the number of exclusion phases the distributed
  /// solver runs.
  [[nodiscard]] std::int32_t max_requirement() const;

  /// One-line description for logs and table captions.
  [[nodiscard]] std::string describe() const;
};

/// Checks shape and feasibility: one requirement per client, every
/// r_j >= 1, and r_j <= degree(j) (a client cannot be covered by more
/// distinct facilities than it can reach). Throws CheckError naming the
/// offending client otherwise.
void validate(const FtfpInstance& inst);

/// Convenience: attach a uniform requirement, clamped per client to its
/// degree so the instance always validates.
[[nodiscard]] FtfpInstance with_uniform_requirement(Instance base,
                                                    std::int32_t r);

/// A coverage-aware solution: a set of open facilities plus, for every
/// client, an ordered list of distinct assigned facilities.
class FtfpSolution {
 public:
  FtfpSolution() = default;
  explicit FtfpSolution(const FtfpInstance& inst);

  void open(FacilityId i);
  [[nodiscard]] bool is_open(FacilityId i) const;
  [[nodiscard]] int num_open() const noexcept { return num_open_; }

  /// Appends facility `i` to client j's assignment list. Rejects
  /// duplicates (the distinctness constraint) with a CheckError.
  void assign(ClientId j, FacilityId i);
  [[nodiscard]] std::span<const FacilityId> assignments(ClientId j) const;
  [[nodiscard]] int coverage(ClientId j) const;

  /// Total cost: opening cost of open facilities (each paid once) plus the
  /// connection cost of *every* assignment.
  [[nodiscard]] Cost cost(const FtfpInstance& inst) const;

  /// Checks: every client has exactly coverage >= r_j, all its assigned
  /// facilities distinct, open, and adjacent. Fills `why` on failure.
  [[nodiscard]] bool is_feasible(const FtfpInstance& inst,
                                 std::string* why = nullptr) const;

  /// The cheapest assigned facility of every client — the "primary" a
  /// deployment routes traffic to while the redundant assignments stand
  /// by. Clients with no assignment keep kNoFacility.
  [[nodiscard]] IntegralSolution primaries(const FtfpInstance& inst) const;

  /// Canonical printable digest (open set + per-client assignment lists in
  /// id order), byte-comparable across runs.
  [[nodiscard]] std::string fingerprint(const FtfpInstance& inst) const;

 private:
  std::vector<std::uint8_t> open_;
  std::vector<std::vector<FacilityId>> assign_;
  int num_open_ = 0;
};

/// Serialization: the dflp-ftfp v1 format wraps the base instance with the
/// requirement vector:
///   dflp-ftfp 1
///   <embedded dflp-ufl 1 block>
///   <r_0> ... <r_{n-1}>
/// The reader follows the grammar and error format in fl/serialize.h and
/// reads its stream to EOF.
void write_ftfp_instance(std::ostream& os, const FtfpInstance& inst);
[[nodiscard]] std::string ftfp_to_text(const FtfpInstance& inst);
[[nodiscard]] FtfpInstance read_ftfp_instance(std::istream& is);
[[nodiscard]] FtfpInstance ftfp_from_text(const std::string& text);

/// The demand-replication reduction: client j becomes r_j copies with j's
/// edges and costs. `copy_owner[jc]` maps a replicated client back to its
/// original.
struct ReplicatedUfl {
  Instance instance;
  std::vector<ClientId> copy_owner;  ///< size = sum of requirements
};
[[nodiscard]] ReplicatedUfl replicate_demands(const FtfpInstance& inst);

/// Maps a UFL solution on the replicated instance back to an FTFP solution
/// with a distinctness repair: copies of the same client assigned to the
/// same facility keep one assignment, and the shortfall is covered by the
/// cheapest adjacent open facilities not yet assigned to the client
/// (opening the cheapest unused neighbour when none is open). The result
/// is always feasible.
[[nodiscard]] FtfpSolution ftfp_from_replicated(
    const FtfpInstance& inst, const ReplicatedUfl& replicated,
    const IntegralSolution& ufl_solution);

/// Centralized baseline: solve the replicated UFL instance with any UFL
/// solver and repair distinctness. If `solve` is an a-approximation for
/// UFL this stays within a of the replicated optimum before repair; the
/// repair only pays for shortfalls the solver created.
[[nodiscard]] FtfpSolution solve_ftfp_by_replication(
    const FtfpInstance& inst,
    const std::function<IntegralSolution(const Instance&)>& solve);

}  // namespace dflp::fl
