#include "core/aggregate.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "core/bipartite.h"

namespace dflp::core {

std::int64_t exp_code(double value) {
  DFLP_CHECK_MSG(value >= 0.0 && std::isfinite(value),
                 "cannot exponent-code " << value);
  if (value == 0.0) return 0;
  int exp = 0;
  std::frexp(value, &exp);
  // frexp: value = f * 2^exp with f in [0.5, 1); floor(log2 v) = exp - 1.
  return static_cast<std::int64_t>(exp - 1) + 1076;
}

double exp_decode(std::int64_t code) {
  DFLP_CHECK(code >= 0);
  if (code == 0) return 0.0;
  return std::ldexp(1.0, static_cast<int>(code - 1076));
}

namespace {

constexpr std::uint8_t kGossip = 30;  // {root, packed codes, max_deg}
constexpr std::uint8_t kChild = 31;   // parent announcement
constexpr std::uint8_t kCount = 32;   // {subtree facility count}
constexpr std::uint8_t kFinal = 33;   // {component facility count}

std::int64_t pack_codes(std::int64_t min_pos, std::int64_t max) {
  return (min_pos << 13) | max;  // exponent codes fit in 12 bits
}
std::int64_t packed_min(std::int64_t packed) { return packed >> 13; }
std::int64_t packed_max(std::int64_t packed) { return packed & 0x1FFF; }

class AggProc final : public net::Process {
 public:
  /// `own_costs` = the cost values this node contributes (facility: its
  /// opening cost + incident connection costs; client: nothing, its edges
  /// are owned by the facility side). `is_facility` drives the count.
  AggProc(bool is_facility, std::vector<double> own_costs, int phase_len)
      : phase_len_(static_cast<std::uint64_t>(phase_len)),
        count_self_(is_facility ? 1 : 0) {
    for (double c : own_costs) {
      const std::int64_t code = exp_code(c);
      if (code > 0) {
        min_pos_code_ = min_pos_code_ == 0 ? code
                                           : std::min(min_pos_code_, code);
      }
      max_code_ = std::max(max_code_, code);
    }
  }

  [[nodiscard]] ComponentBounds bounds() const {
    ComponentBounds b;
    b.root = root_;
    b.facility_count = final_count_;
    b.min_positive_cost = exp_decode(min_pos_code_);
    b.max_cost = exp_decode(max_code_);
    b.max_degree = max_deg_;
    return b;
  }

  void on_round(net::NodeContext& ctx,
                std::span<const net::Message> inbox) override {
    const std::uint64_t r = ctx.round();
    if (r == 0) {
      root_ = ctx.self();
      max_deg_ = ctx.degree();
      if (ctx.degree() == 0) {
        // Isolated node: a one-node component, fully known already.
        final_count_ = count_self_;
        ctx.halt();
        return;
      }
      broadcast_gossip(ctx);
      return;
    }

    if (r <= phase_len_) {
      // Phase A: min-id flood + idempotent aggregates.
      bool changed = false;
      for (const net::Message& msg : inbox) {
        DFLP_CHECK(msg.kind == kGossip);
        if (msg.field[0] < root_) {
          root_ = msg.field[0];
          parent_ = msg.src;
          changed = true;
        }
        const std::int64_t mn = packed_min(msg.field[1]);
        const std::int64_t mx = packed_max(msg.field[1]);
        if (mn > 0 && (min_pos_code_ == 0 || mn < min_pos_code_)) {
          min_pos_code_ = mn;
          changed = true;
        }
        if (mx > max_code_) {
          max_code_ = mx;
          changed = true;
        }
        if (msg.field[2] > max_deg_) {
          max_deg_ = static_cast<int>(msg.field[2]);
          changed = true;
        }
      }
      if (r == phase_len_) {
        // Stability invariant: with phase_len >= eccentricity + 1 nothing
        // may still be changing at the phase boundary.
        DFLP_CHECK_MSG(!changed,
                       "aggregation phase too short (diameter bound "
                       "violated) at node " << ctx.self());
        // Phase B kickoff: announce ourselves to our parent.
        if (parent_ != net::kNoNode) ctx.send(parent_, kChild);
        subtree_count_ = count_self_;
        return;
      }
      if (changed) broadcast_gossip(ctx);
      return;
    }

    if (r <= 2 * phase_len_) {
      // Phase B: convergecast facility counts along the parent tree.
      for (const net::Message& msg : inbox) {
        if (msg.kind == kChild) {
          children_.push_back(msg.src);
          child_count_.push_back(0);
        } else if (msg.kind == kCount) {
          const auto it =
              std::find(children_.begin(), children_.end(), msg.src);
          DFLP_CHECK_MSG(it != children_.end(),
                         "COUNT from a non-child neighbour");
          child_count_[static_cast<std::size_t>(it - children_.begin())] =
              msg.field[0];
        } else {
          DFLP_CHECK_MSG(false, "unexpected opcode in phase B");
        }
      }
      std::int64_t total = count_self_;
      for (std::int64_t c : child_count_) total += c;
      if (total != subtree_count_reported_ && parent_ != net::kNoNode) {
        subtree_count_reported_ = total;
        ctx.send(parent_, kCount, {total, 0, 0});
      }
      subtree_count_ = total;

      if (r == 2 * phase_len_ && parent_ == net::kNoNode) {
        // Root: the count has stabilized; start the downcast.
        final_count_ = subtree_count_;
        for (net::NodeId c : children_) ctx.send(c, kFinal, {final_count_, 0, 0});
        ctx.halt();
      }
      return;
    }

    // Phase C: forward FINAL down the tree, then halt.
    for (const net::Message& msg : inbox) {
      if (msg.kind == kFinal) {
        DFLP_CHECK(msg.src == parent_);
        final_count_ = msg.field[0];
        for (net::NodeId c : children_) ctx.send(c, kFinal, {final_count_, 0, 0});
        ctx.halt();
        return;
      }
      // Late COUNT updates cannot occur: phase B stabilized. Anything else
      // is a protocol error.
      DFLP_CHECK_MSG(msg.kind == kCount,
                     "unexpected opcode in phase C");
      DFLP_CHECK_MSG(false, "COUNT after phase B stabilization");
    }
  }

 private:
  void broadcast_gossip(net::NodeContext& ctx) {
    ctx.broadcast(kGossip, {root_, pack_codes(min_pos_code_, max_code_),
                            static_cast<std::int64_t>(max_deg_)});
  }

  std::uint64_t phase_len_;
  std::int64_t count_self_;
  std::int64_t root_ = std::numeric_limits<std::int64_t>::max();
  net::NodeId parent_ = net::kNoNode;
  std::int64_t min_pos_code_ = 0;
  std::int64_t max_code_ = 0;
  int max_deg_ = 0;
  std::vector<net::NodeId> children_;
  std::vector<std::int64_t> child_count_;
  std::int64_t subtree_count_ = 0;
  std::int64_t subtree_count_reported_ = -1;
  std::int64_t final_count_ = 0;
};

}  // namespace

DiscoveryOutcome discover_bounds(const fl::Instance& inst,
                                 std::uint64_t seed, int diameter_bound,
                                 net::DeliveryOrder delivery) {
  const auto total_nodes =
      static_cast<std::size_t>(inst.num_facilities() + inst.num_clients());
  const int phase_len = diameter_bound > 0
                            ? diameter_bound
                            : static_cast<int>(total_nodes);

  net::Network::Options options;
  // Gossip packs two 12-bit exponent codes plus a node id and a degree:
  // comfortably O(log N) but above the tightest default budget on tiny
  // networks, so size it explicitly.
  options.bit_budget = net::congest_bit_budget(total_nodes) + 32;
  options.seed = seed;
  options.delivery = delivery;
  net::Network net = make_bipartite_network(inst, options);

  for (fl::FacilityId i = 0; i < inst.num_facilities(); ++i) {
    std::vector<double> own{inst.opening_cost(i)};
    for (const fl::FacilityEdge& e : inst.facility_edges(i))
      own.push_back(e.cost);
    net.set_process(facility_node(i),
                    std::make_unique<AggProc>(true, std::move(own),
                                              phase_len));
  }
  for (fl::ClientId j = 0; j < inst.num_clients(); ++j) {
    net.set_process(client_node(inst, j),
                    std::make_unique<AggProc>(false, std::vector<double>{},
                                              phase_len));
  }

  DiscoveryOutcome outcome;
  outcome.metrics =
      net.run(3ULL * static_cast<std::uint64_t>(phase_len) + 8);
  outcome.bounds.reserve(total_nodes);
  for (std::size_t v = 0; v < total_nodes; ++v) {
    outcome.bounds.push_back(
        static_cast<const AggProc&>(net.process(static_cast<net::NodeId>(v)))
            .bounds());
  }
  return outcome;
}

}  // namespace dflp::core
