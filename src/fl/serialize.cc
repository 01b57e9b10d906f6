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

/// Parses one `dflp-ufl 1` block and builds it.
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

Instance read_instance(std::istream& is) {
  const std::string text = read_all(is);
  TextScanner in(text);
  Instance inst = scan_instance(in);
  in.expect_end();
  return inst;
}

}  // namespace dflp::fl
