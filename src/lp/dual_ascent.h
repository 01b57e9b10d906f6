// Dual-ascent lower bound for UFL (Erlenkotter-style).
//
// The LP dual of the UFL relaxation is
//   maximize   sum_j alpha_j
//   subject to sum_j max(0, alpha_j - c_ij) <= f_i   for every facility i
//              alpha >= 0,
// so ANY feasible alpha yields `sum_j alpha_j <= LP optimum <= OPT`. The
// classic ascent grows all client duals simultaneously at unit rate and
// freezes a client the moment raising its dual further would violate some
// facility's budget.
//
// The implementation is event-driven, and events follow one total order:
// time first; at equal time, edge crossings before facilities going tight;
// then client or facility id; then edge index. So ties resolve by that
// rule, not by a container's shape, in every output, including the witness
// and tight times Jain–Vazirani reads. Two heaps hold the pending events,
// never more than n + m entries together: each active client's next
// uncrossed edge (edges are cost-sorted, so a client pays exactly a prefix
// of its list) and each paid facility's predicted tight time, re-keyed in
// place when it gains or loses a payer. A run costs
// O(E + c log n + p log m), where c is the number of crossings processed
// and p the number of payer changes. It scales to the 10^5-client
// instances the large benches use, where the simplex substrate cannot.
#pragma once

#include <vector>

#include "fl/instance.h"

namespace dflp::lp {

struct DualAscentResult {
  /// Per-client dual value (the freeze time of each client).
  std::vector<double> alpha;
  /// sum(alpha): a valid lower bound on the LP optimum and hence on OPT.
  double lower_bound = 0.0;
  /// Per-facility time at which its budget became exhausted ("temporarily
  /// opened" in Jain–Vazirani terms), +inf if it never did.
  std::vector<double> tight_time;
  /// Per-client facility whose event froze the client (its JV "witness").
  std::vector<fl::FacilityId> witness;
};

[[nodiscard]] DualAscentResult dual_ascent_bound(const fl::Instance& inst);

/// The weakest always-available lower bound: every client must pay at least
/// its cheapest connection cost. Used as a fallback denominator on
/// instances too large even for dual ascent (and in sanity tests).
[[nodiscard]] double cheapest_connection_bound(const fl::Instance& inst);

}  // namespace dflp::lp
