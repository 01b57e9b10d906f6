#include "lp/dual_ascent.h"

#include <limits>

#include "common/check.h"

namespace dflp::lp {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Binary min-heap of (time, id) entries over ids in [0, ids), ordered by
/// time, then id. At most one entry per id; `set` re-keys an id in place
/// and `erase` removes it, through each id's tracked slot.
class EventHeap {
 public:
  struct Entry {
    double time = 0.0;
    std::int32_t id = 0;

    bool operator<(const Entry& o) const {
      return time < o.time || (time == o.time && id < o.id);
    }
  };

  explicit EventHeap(std::int32_t ids)
      : slot_(static_cast<std::size_t>(ids), kAbsent) {
    heap_.reserve(static_cast<std::size_t>(ids));
  }

  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] const Entry& top() const noexcept { return heap_.front(); }

  /// Inserts `id` at `time`, or moves its entry there.
  void set(std::int32_t id, double time) {
    const Entry e{time, id};
    std::size_t s = slot_[static_cast<std::size_t>(id)];
    if (s == kAbsent) {
      s = heap_.size();
      heap_.push_back(e);
    } else if (heap_[s] < e) {
      sift_down(s, e);
      return;
    }
    sift_up(s, e);
  }

  /// Removes `id`'s entry, if it has one.
  void erase(std::int32_t id) {
    const std::size_t s = slot_[static_cast<std::size_t>(id)];
    if (s == kAbsent) return;
    slot_[static_cast<std::size_t>(id)] = kAbsent;
    const Entry last = heap_.back();
    heap_.pop_back();
    if (s == heap_.size()) return;
    if (last < heap_[s]) {
      sift_up(s, last);
    } else {
      sift_down(s, last);
    }
  }

 private:
  static constexpr std::size_t kAbsent = static_cast<std::size_t>(-1);

  void place(std::size_t s, const Entry& e) {
    heap_[s] = e;
    slot_[static_cast<std::size_t>(e.id)] = s;
  }

  // Both sifts move a hole from slot `s` and drop `e` where it lands.
  void sift_up(std::size_t s, const Entry& e) {
    while (s > 0) {
      const std::size_t parent = (s - 1) / 2;
      if (!(e < heap_[parent])) break;
      place(s, heap_[parent]);
      s = parent;
    }
    place(s, e);
  }

  void sift_down(std::size_t s, const Entry& e) {
    const std::size_t size = heap_.size();
    for (std::size_t child = 2 * s + 1; child < size; child = 2 * s + 1) {
      if (child + 1 < size && heap_[child + 1] < heap_[child]) ++child;
      if (!(heap_[child] < e)) break;
      place(s, heap_[child]);
      s = child;
    }
    place(s, e);
  }

  std::vector<Entry> heap_;
  std::vector<std::size_t> slot_;
};

struct FacilityState {
  double slack = 0.0;       ///< remaining budget at time `updated_at`
  double updated_at = 0.0;  ///< time of last accounting refresh
  std::int32_t active_payers = 0;
  bool tight = false;
};

}  // namespace

DualAscentResult dual_ascent_bound(const fl::Instance& inst) {
  const std::int32_t m = inst.num_facilities();
  const std::int32_t n = inst.num_clients();

  std::vector<FacilityState> fac(static_cast<std::size_t>(m));
  std::vector<double> alpha(static_cast<std::size_t>(n), -1.0);  // -1 = active
  std::vector<double> tight_time(static_cast<std::size_t>(m), kInf);
  std::vector<fl::FacilityId> witness(static_cast<std::size_t>(n),
                                      fl::kNoFacility);
  // An active client has crossed, and pays, exactly the first `crossed[j]`
  // edges of its cost-sorted list: crossing onto a tight facility freezes
  // it, and so does any facility it pays going tight.
  std::vector<std::int32_t> crossed(static_cast<std::size_t>(n), 0);

  // Each client's next uncrossed edge, keyed (cost, client). A frozen
  // client's entry is dropped when it reaches the top.
  EventHeap crossings(n);
  // Each facility with payers that is not yet tight, keyed (predicted tight
  // time, facility).
  EventHeap tight_events(m);
  // Every crossed edge costs at most this: the bound on the facility-side
  // payer walk. A rounded tight prediction can fall below it.
  double crossed_up_to = -kInf;

  for (fl::FacilityId i = 0; i < m; ++i) {
    auto& f = fac[static_cast<std::size_t>(i)];
    f.slack = inst.opening_cost(i);
    if (f.slack <= 0.0) f.tight = true;  // zero-cost facilities start tight
  }
  for (fl::ClientId j = 0; j < n; ++j)
    crossings.set(j, inst.client_edges(j).front().cost);

  // Brings facility accounting forward to `t` (slack decreases at a rate of
  // one unit per active payer).
  auto refresh = [](FacilityState& f, double t) {
    if (t > f.updated_at) {
      f.slack -= static_cast<double>(f.active_payers) * (t - f.updated_at);
      f.updated_at = t;
    }
  };

  // Re-predicts when a facility that is not tight runs out of budget.
  auto predict = [&](fl::FacilityId i) {
    const auto& f = fac[static_cast<std::size_t>(i)];
    if (f.active_payers == 0) {
      tight_events.erase(i);
    } else {
      tight_events.set(i, f.updated_at + f.slack / static_cast<double>(
                                                       f.active_payers));
    }
  };

  std::int32_t active_clients = n;

  // Freezing an active client fixes its contribution to every facility it
  // pays. `w` is the facility whose event caused the freeze (the JV
  // witness).
  auto freeze_client = [&](fl::ClientId j, double t, fl::FacilityId w) {
    alpha[static_cast<std::size_t>(j)] = t;
    witness[static_cast<std::size_t>(j)] = w;
    --active_clients;
    const auto paid = inst.client_edges(j).first(
        static_cast<std::size_t>(crossed[static_cast<std::size_t>(j)]));
    for (const fl::ClientEdge& e : paid) {
      auto& f = fac[static_cast<std::size_t>(e.facility)];
      if (f.tight) continue;
      refresh(f, t);
      --f.active_payers;
      predict(e.facility);
    }
  };

  auto tighten_facility = [&](fl::FacilityId i, double t) {
    auto& f = fac[static_cast<std::size_t>(i)];
    refresh(f, t);
    f.tight = true;
    tight_time[static_cast<std::size_t>(i)] = t;
    tight_events.erase(i);
    // Freeze every client currently paying this facility: an active client
    // pays it when its crossed prefix reaches the edge, that is, when the
    // edge sorts no later than the client's last paid one. Freezing one
    // payer changes no other client's prefix, so they freeze as found.
    for (const fl::FacilityEdge& e : inst.facility_edges(i)) {
      if (e.cost > crossed_up_to) break;
      const auto j = static_cast<std::size_t>(e.client);
      if (alpha[j] >= 0.0 || crossed[j] == 0) continue;
      const fl::ClientEdge last =
          inst.client_edges(e.client)[static_cast<std::size_t>(crossed[j] - 1)];
      if (e.cost < last.cost || (e.cost == last.cost && i <= last.facility))
        freeze_client(e.client, t, i);
    }
  };

  // Events in the canonical order: time first; at equal time crossings
  // before tight events; then client or facility id. A client's crossings
  // arrive in edge-index order, since its list is sorted by cost.
  while (active_clients > 0 && !(crossings.empty() && tight_events.empty())) {
    if (crossings.empty() ||
        (!tight_events.empty() &&
         tight_events.top().time < crossings.top().time)) {
      const EventHeap::Entry ev = tight_events.top();
      tighten_facility(ev.id, ev.time);
      continue;
    }
    const EventHeap::Entry ev = crossings.top();
    const fl::ClientId j = ev.id;
    const auto ju = static_cast<std::size_t>(j);
    if (alpha[ju] >= 0.0) {  // frozen
      crossings.erase(j);
      continue;
    }
    const auto edges = inst.client_edges(j);
    const fl::ClientEdge edge = edges[static_cast<std::size_t>(crossed[ju])];
    crossed_up_to = ev.time;
    auto& f = fac[static_cast<std::size_t>(edge.facility)];
    if (f.tight) {
      // Raising alpha_j beyond c_ij would need beta > 0 against a spent
      // budget: freeze exactly at the crossing.
      freeze_client(j, ev.time, edge.facility);
    } else {
      refresh(f, ev.time);
      if (f.slack <= 1e-12) {
        tighten_facility(edge.facility, ev.time);
        freeze_client(j, ev.time, edge.facility);
      } else {
        ++f.active_payers;
        ++crossed[ju];
        predict(edge.facility);
      }
    }
    if (alpha[ju] < 0.0 &&
        static_cast<std::size_t>(crossed[ju]) < edges.size()) {
      crossings.set(j, edges[static_cast<std::size_t>(crossed[ju])].cost);
    } else {
      crossings.erase(j);
    }
  }

  DFLP_CHECK_MSG(active_clients == 0,
                 "dual ascent finished with active clients — every client "
                 "has a crossing event, so this indicates a bug");

  DualAscentResult result;
  result.alpha = std::move(alpha);
  result.tight_time = std::move(tight_time);
  result.witness = std::move(witness);
  for (double a : result.alpha) result.lower_bound += a;
  return result;
}

double cheapest_connection_bound(const fl::Instance& inst) {
  double total = 0.0;
  for (fl::ClientId j = 0; j < inst.num_clients(); ++j)
    total += inst.client_edges(j).front().cost;  // sorted ascending
  return total;
}

}  // namespace dflp::lp
