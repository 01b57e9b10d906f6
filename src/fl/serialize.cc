#include "fl/serialize.h"

#include <cmath>
#include <limits>
#include <ostream>
#include <sstream>
#include <unordered_map>

#include "common/check.h"
#include "fl/text_scanner.h"

namespace dflp::fl {
namespace {

/// Largest dense id or count: ids are int32, and so are the CSR offsets
/// that bound the edge count.
constexpr std::int64_t kMaxId = std::numeric_limits<std::int32_t>::max();
/// Largest stable key or epoch; both are non-negative int64.
constexpr std::int64_t kMaxKey = std::numeric_limits<std::int64_t>::max();

/// Re-reads the `edges` edge lines of an m x n instance from `in`, which
/// stands before the first, and throws at the facility id of the first
/// edge that repeats an earlier one, naming that one's line. Returns if no
/// edge repeats. Only a failed build() calls it, so a good input is read
/// once.
void fail_on_repeated_edge(TextScanner in, std::int64_t m, std::int64_t n,
                           std::int64_t edges) {
  std::unordered_map<std::int64_t, std::int64_t> line_of;
  line_of.reserve(static_cast<std::size_t>(edges));
  for (std::int64_t e = 0; e < edges; ++e) {
    const std::int64_t i = in.integer("facility id", 0, m - 1);
    const TextScanner at_facility = in;
    const std::int64_t j = in.integer("client id", 0, n - 1);
    (void)in.cost("connection cost");
    const auto [first, fresh] =
        line_of.try_emplace(i * n + j, at_facility.line());
    if (!fresh) {
      std::ostringstream os;
      os << "edge (" << i << ", " << j << ") repeats line " << first->second;
      at_facility.fail(os.str());
    }
  }
}

}  // namespace

void write_instance(std::ostream& os, const Instance& inst) {
  os << "dflp-ufl 1\n";
  os << inst.num_facilities() << ' ' << inst.num_clients() << ' '
     << inst.num_edges() << '\n';
  os.precision(17);
  for (FacilityId i = 0; i < inst.num_facilities(); ++i) {
    os << inst.opening_cost(i) << (i + 1 < inst.num_facilities() ? ' ' : '\n');
  }
  for (FacilityId i = 0; i < inst.num_facilities(); ++i) {
    for (const FacilityEdge& e : inst.facility_edges(i)) {
      os << i << ' ' << e.client << ' ' << e.cost << '\n';
    }
  }
}

std::string to_text(const Instance& inst) {
  std::ostringstream os;
  write_instance(os, inst);
  return os.str();
}

Instance scan_instance(TextScanner& in) {
  in.header("dflp-ufl");
  const std::int64_t m = in.integer("facility count", 1, kMaxId);
  const std::int64_t n = in.integer("client count", 1, kMaxId);
  const std::int64_t edges = in.integer("edge count", 0, kMaxId);
  if (edges < n)
    in.fail_token("edges cannot cover " + std::to_string(n) +
                  " clients, which need one edge each");
  in.expect_room(m + 3 * edges);

  // Costs are summed as they are read, so that a total that overflows is
  // reported at the field that tips it; build() re-checks for every caller.
  Cost total = 0.0;
  const auto summed_cost = [&in, &total](const char* field) {
    const Cost c = in.cost(field);
    total += c;
    if (!std::isfinite(total))
      in.fail_token("makes the total cost overflow a double");
    return c;
  };

  InstanceBuilder builder;
  builder.reserve(static_cast<std::int32_t>(m), static_cast<std::int32_t>(n),
                  static_cast<std::size_t>(edges));
  for (std::int64_t i = 0; i < m; ++i)
    (void)builder.add_facility(summed_cost("opening cost"));
  for (std::int64_t j = 0; j < n; ++j) (void)builder.add_client();
  const TextScanner first_edge = in;
  for (std::int64_t e = 0; e < edges; ++e) {
    const std::int64_t i = in.integer("facility id", 0, m - 1);
    const std::int64_t j = in.integer("client id", 0, n - 1);
    builder.connect(static_cast<FacilityId>(i), static_cast<ClientId>(j),
                    summed_cost("connection cost"));
  }
  try {
    return builder.build();
  } catch (const CheckError&) {
    // build() names a duplicate edge by its ids; name its input lines.
    fail_on_repeated_edge(first_edge, m, n, edges);
    throw;
  }
}

Instance read_instance(std::istream& is) {
  return scan_all(read_all(is), scan_instance);
}

Instance from_text(const std::string& text) {
  return scan_all(text, scan_instance);
}

void write_snapshot(std::ostream& os, const InstanceSnapshot& snap) {
  os << "dflp-snap 1\n";
  os << snap.epoch() << ' ' << snap.next_facility_key() << ' '
     << snap.next_client_key() << '\n';
  write_instance(os, snap.instance());
  const Instance& inst = snap.instance();
  for (FacilityId i = 0; i < inst.num_facilities(); ++i)
    os << snap.facility_key(i) << (i + 1 < inst.num_facilities() ? ' ' : '\n');
  for (ClientId j = 0; j < inst.num_clients(); ++j)
    os << snap.client_key(j) << (j + 1 < inst.num_clients() ? ' ' : '\n');
}

std::string snapshot_to_text(const InstanceSnapshot& snap) {
  std::ostringstream os;
  write_snapshot(os, snap);
  return os.str();
}

namespace {

InstanceSnapshot scan_snapshot(TextScanner& in) {
  in.header("dflp-snap");
  const EpochId epoch = in.integer("epoch", 0, kMaxKey);
  const NodeKey next_f = in.integer("next facility key", 0, kMaxKey);
  const NodeKey next_c = in.integer("next client key", 0, kMaxKey);
  Instance inst = scan_instance(in);
  std::vector<NodeKey> fkeys(static_cast<std::size_t>(inst.num_facilities()));
  std::vector<NodeKey> ckeys(static_cast<std::size_t>(inst.num_clients()));
  for (NodeKey& k : fkeys) k = in.integer("facility key", 0, kMaxKey);
  for (NodeKey& k : ckeys) k = in.integer("client key", 0, kMaxKey);
  return InstanceSnapshot::restore(std::move(inst), epoch, std::move(fkeys),
                                   std::move(ckeys), next_f, next_c);
}

}  // namespace

InstanceSnapshot read_snapshot(std::istream& is) {
  return scan_all(read_all(is), scan_snapshot);
}

InstanceSnapshot snapshot_from_text(const std::string& text) {
  return scan_all(text, scan_snapshot);
}

void write_delta_log(std::ostream& os, const DeltaLog& log) {
  os << "dflp-delta-log 1\n" << log.size() << '\n';
  os.precision(17);
  for (const Delta& d : log.deltas()) {
    switch (d.kind) {
      case Delta::Kind::kClientArrive:
        os << "arrive " << d.client << ' ' << d.edges.size();
        for (const KeyedEdge& e : d.edges) os << ' ' << e.peer << ' '
                                              << e.cost;
        os << '\n';
        break;
      case Delta::Kind::kClientDepart:
        os << "depart " << d.client << '\n';
        break;
      case Delta::Kind::kFacilityOpen:
        os << "open " << d.facility << ' ' << d.cost << ' '
           << d.edges.size();
        for (const KeyedEdge& e : d.edges) os << ' ' << e.peer << ' '
                                              << e.cost;
        os << '\n';
        break;
      case Delta::Kind::kFacilityClose:
        os << "close " << d.facility << '\n';
        break;
      case Delta::Kind::kEdgeCostChange:
        os << "reprice " << d.facility << ' ' << d.client << ' ' << d.cost
           << '\n';
        break;
    }
  }
}

std::string delta_log_to_text(const DeltaLog& log) {
  std::ostringstream os;
  write_delta_log(os, log);
  return os.str();
}

namespace {

/// `<deg> (<peer key> <cost>)*`, the edge list of an arrive or open delta.
std::vector<KeyedEdge> scan_keyed_edges(TextScanner& in) {
  const std::int64_t deg = in.integer("edge count", 0, kMaxId);
  in.expect_room(2 * deg);
  std::vector<KeyedEdge> edges(static_cast<std::size_t>(deg));
  for (KeyedEdge& e : edges) {
    e.peer = in.integer("peer key", 0, kMaxKey);
    e.cost = in.cost("edge cost");
  }
  return edges;
}

DeltaLog scan_delta_log(TextScanner& in) {
  in.header("dflp-delta-log");
  const std::int64_t count = in.integer("delta count", 0, kMaxId);
  in.expect_room(2 * count);
  DeltaLog log;
  for (std::int64_t t = 0; t < count; ++t) {
    const std::string_view kind = in.word("delta kind");
    if (kind == "arrive") {
      const NodeKey c = in.integer("client key", 0, kMaxKey);
      log.append(Delta::client_arrive(c, scan_keyed_edges(in)));
    } else if (kind == "depart") {
      log.append(Delta::client_depart(in.integer("client key", 0, kMaxKey)));
    } else if (kind == "open") {
      const NodeKey f = in.integer("facility key", 0, kMaxKey);
      const Cost opening = in.cost("opening cost");
      log.append(Delta::facility_open(f, opening, scan_keyed_edges(in)));
    } else if (kind == "close") {
      log.append(
          Delta::facility_close(in.integer("facility key", 0, kMaxKey)));
    } else if (kind == "reprice") {
      const NodeKey f = in.integer("facility key", 0, kMaxKey);
      const NodeKey c = in.integer("client key", 0, kMaxKey);
      log.append(Delta::edge_cost_change(f, c, in.cost("edge cost")));
    } else {
      in.fail_token("is not a delta kind (arrive, depart, open, close, "
                    "reprice)");
    }
  }
  return log;
}

}  // namespace

DeltaLog read_delta_log(std::istream& is) {
  return scan_all(read_all(is), scan_delta_log);
}

DeltaLog delta_log_from_text(const std::string& text) {
  return scan_all(text, scan_delta_log);
}

}  // namespace dflp::fl
