// Fault/transport wiring shared by the core protocol runners.
//
// Every runner (mw_greedy, frac_lp, rand_round) maps the same three
// MwParams knobs onto its network:
//   * `params.faults` installs the seeded FaultPlan;
//   * `params.reliable` wraps every node program in a ReliableChannel
//     (netsim/reliable.h), widens the physical bit budget to carry the
//     transport header, and stretches the round bound for dilation and the
//     channel's linger tail;
//   * on failure under injected faults, the CheckError is re-thrown with
//     the identity of the first lost message appended, so a test or a user
//     can see *which* drop broke an unprotected run.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "common/check.h"
#include "core/params.h"
#include "netsim/network.h"
#include "netsim/reliable.h"

namespace dflp::core {

/// Applies the fault plan and, in reliable mode, widens the physical bit
/// budget so frames can carry an inner `options.bit_budget`-bit payload
/// plus a header for up to `max_logical_rounds` logical rounds.
inline void apply_transport_options(net::Network::Options& options,
                                    const MwParams& params,
                                    std::uint64_t max_logical_rounds) {
  options.faults = params.faults;
  options.tracer = params.tracer;
  if (params.reliable) {
    options.bit_budget =
        net::reliable_bit_budget(options.bit_budget, max_logical_rounds);
  }
}

/// Wraps `inner` in a ReliableChannel when the params ask for one.
inline std::unique_ptr<net::Process> maybe_reliable(
    std::unique_ptr<net::Process> inner, const MwParams& params,
    int inner_bit_budget) {
  if (!params.reliable) return inner;
  return std::make_unique<net::ReliableChannel>(std::move(inner),
                                                inner_bit_budget);
}

/// Physical round bound: `logical_bound` for a direct run; under the
/// channel, room for loss-driven dilation plus the linger tail.
inline std::uint64_t transport_max_rounds(const MwParams& params,
                                          std::uint64_t logical_bound) {
  if (!params.reliable) return logical_bound;
  return 8 * logical_bound + 160;
}

/// Readout: the node program installed at `id`, unwrapped from the channel
/// in reliable mode.
template <typename Proc>
const Proc& transport_inner(const net::Network& net, const MwParams& params,
                            net::NodeId id) {
  const net::Process& proc = net.process(id);
  if (params.reliable) {
    return static_cast<const Proc&>(
        static_cast<const net::ReliableChannel&>(proc).inner());
  }
  return static_cast<const Proc&>(proc);
}

/// Channel counters aggregated over all nodes (zero for direct runs).
inline net::ReliableStats collect_transport_stats(const net::Network& net,
                                                  const MwParams& params) {
  net::ReliableStats total;
  if (!params.reliable) return total;
  for (std::size_t id = 0; id < net.num_nodes(); ++id) {
    total.merge(static_cast<const net::ReliableChannel&>(
                    net.process(static_cast<net::NodeId>(id)))
                    .stats());
  }
  return total;
}

/// Runs `body` (the run + readout + feasibility block of a runner); if it
/// throws CheckError while fault injection actually dropped traffic, the
/// diagnostic is re-thrown with the first lost message named.
template <typename Fn>
auto with_fault_context(const net::Network& net, Fn&& body) {
  try {
    return body();
  } catch (const CheckError& err) {
    const net::NetMetrics& m = net.cumulative_metrics();
    if (m.dropped == 0) throw;
    std::ostringstream os;
    os << err.what() << " [fault injection: first lost message was "
       << m.first_drop_src << "->" << m.first_drop_dst << " kind "
       << static_cast<int>(m.first_drop_kind) << " in round "
       << m.first_drop_round << "; " << m.dropped << " dropped total]";
    throw CheckError(os.str());
  }
}

}  // namespace dflp::core
