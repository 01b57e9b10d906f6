// Solution types for UFL: integral (what algorithms output) and fractional
// (what the LP stage outputs), with cost evaluation and feasibility checks.
#pragma once

#include <string>
#include <vector>

#include "fl/instance.h"

namespace dflp::fl {

/// An integral solution: a set of open facilities plus an assignment of
/// every client to an open, adjacent facility.
class IntegralSolution {
 public:
  IntegralSolution() = default;
  explicit IntegralSolution(const Instance& inst);

  void open(FacilityId i);
  [[nodiscard]] bool is_open(FacilityId i) const;
  [[nodiscard]] int num_open() const noexcept { return num_open_; }

  void assign(ClientId j, FacilityId i);
  [[nodiscard]] FacilityId assignment(ClientId j) const;

  /// Assigns every client to its cheapest *open* adjacent facility.
  /// Clients with no open neighbour keep kNoFacility (infeasible — caught
  /// by is_feasible). Returns the number of clients assigned.
  int assign_greedily(const Instance& inst);

  /// Drops open facilities that serve no client (cost-only improvement).
  /// Returns the number of facilities closed.
  int prune_unused(const Instance& inst);

  /// Total cost: sum of opening costs of open facilities plus connection
  /// costs of the assignment. Requires a feasible solution.
  [[nodiscard]] Cost cost(const Instance& inst) const;

  /// Checks: every client assigned, to an open facility, along an existing
  /// edge. On failure, fills `why` (if non-null) and returns false.
  [[nodiscard]] bool is_feasible(const Instance& inst,
                                 std::string* why = nullptr) const;

 private:
  std::vector<std::uint8_t> open_;
  std::vector<FacilityId> assign_;
  int num_open_ = 0;
};

/// A fractional solution of the UFL LP:
///   min  sum_i f_i y_i + sum_(ij) c_ij x_ij
///   s.t. sum_i x_ij >= 1        for every client j
///        x_ij <= y_i            for every edge (i, j)
///        x, y >= 0
/// `x` is stored sparsely, aligned with the instance's client-edge array
/// (entry k corresponds to the k-th edge in client-CSR order).
struct FractionalSolution {
  std::vector<double> y;  ///< per facility, size m
  std::vector<double> x;  ///< per client-edge, size total_client_edges()

  explicit FractionalSolution(const Instance& inst)
      : y(static_cast<std::size_t>(inst.num_facilities()), 0.0),
        x(inst.total_client_edges(), 0.0) {}

  /// LP objective value.
  [[nodiscard]] double value(const Instance& inst) const;

  /// Feasibility within tolerance: coverage >= 1 - tol for all clients,
  /// 0 <= x_ij <= y_i + tol, 0 <= y <= 1 + tol.
  [[nodiscard]] bool is_feasible(const Instance& inst, double tol = 1e-7,
                                 std::string* why = nullptr) const;
};

}  // namespace dflp::fl
