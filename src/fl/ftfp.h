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
// solution type (`FtfpSolution`) and its cost accounting; the distributed
// solver is core/ftfp_greedy.h.
#pragma once

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

  /// Checks: every client has coverage >= r_j, and all its assigned
  /// facilities are open and adjacent (assign() keeps them distinct).
  /// Fills `why` on failure.
  [[nodiscard]] bool is_feasible(const FtfpInstance& inst,
                                 std::string* why = nullptr) const;

  /// Canonical printable digest (open set + per-client assignment lists in
  /// id order), byte-comparable across runs.
  [[nodiscard]] std::string fingerprint(const FtfpInstance& inst) const;

 private:
  std::vector<std::uint8_t> open_;
  std::vector<std::vector<FacilityId>> assign_;
  int num_open_ = 0;
};

}  // namespace dflp::fl
