#include "workload/stream.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>

#include "common/check.h"
#include "fl/instance.h"

namespace dflp::workload {

namespace {

/// Picks `degree` distinct facility slots out of [0, fpc) by partial
/// Fisher–Yates over a scratch vector; fpc is cell-sized, so this is O(1)
/// per event for fixed params.
void sample_cell_slots(std::int32_t fpc, std::int32_t degree, Rng& rng,
                       std::vector<std::int32_t>& scratch,
                       std::vector<std::int32_t>& out) {
  scratch.resize(static_cast<std::size_t>(fpc));
  for (std::int32_t t = 0; t < fpc; ++t)
    scratch[static_cast<std::size_t>(t)] = t;
  out.clear();
  for (std::int32_t t = 0; t < degree; ++t) {
    const auto pick = static_cast<std::int32_t>(
                          rng.uniform_u64(static_cast<std::uint64_t>(
                              fpc - t))) +
                      t;
    std::swap(scratch[static_cast<std::size_t>(t)],
              scratch[static_cast<std::size_t>(pick)]);
    out.push_back(scratch[static_cast<std::size_t>(t)]);
  }
}

}  // namespace

ClientStream::ClientStream(const StreamParams& params, std::uint64_t seed)
    : params_(params), rng_(seed) {
  DFLP_CHECK(params_.num_cells >= 1 && params_.facilities_per_cell >= 1);
  DFLP_CHECK(params_.initial_clients >= 1);
  DFLP_CHECK_MSG(params_.arrival_fraction > 0.5 &&
                     params_.arrival_fraction <= 1.0,
                 "arrival_fraction must be in (0.5, 1] so the population "
                 "drifts upward, got "
                     << params_.arrival_fraction);
  DFLP_CHECK(params_.opening_hi >= params_.opening_lo &&
             params_.opening_lo >= 0.0);
  DFLP_CHECK(params_.connection_hi >= params_.connection_lo &&
             params_.connection_lo >= 0.0);
  params_.client_degree =
      std::max<std::int32_t>(1, std::min(params_.client_degree,
                                         params_.facilities_per_cell));

  const std::int32_t fpc = params_.facilities_per_cell;
  const std::int64_t facilities = std::int64_t{params_.num_cells} * fpc;
  DFLP_CHECK_MSG(facilities <= std::numeric_limits<std::int32_t>::max(),
                 "num_cells * facilities_per_cell = "
                     << facilities << " exceeds the int32 node limit "
                     << std::numeric_limits<std::int32_t>::max());
  const auto m = static_cast<std::int32_t>(facilities);

  fl::InstanceBuilder builder;
  builder.reserve(m, params_.initial_clients,
                  static_cast<std::size_t>(params_.initial_clients) *
                      static_cast<std::size_t>(params_.client_degree));
  for (std::int32_t i = 0; i < m; ++i)
    (void)builder.add_facility(
        rng_.uniform_real(params_.opening_lo, params_.opening_hi));

  std::vector<std::int32_t> scratch;
  std::vector<std::int32_t> slots;
  alive_.reserve(static_cast<std::size_t>(params_.initial_clients));
  for (std::int32_t j = 0; j < params_.initial_clients; ++j) {
    const std::int32_t cell = j % params_.num_cells;
    const fl::ClientId cj = builder.add_client();
    sample_cell_slots(fpc, params_.client_degree, rng_, scratch, slots);
    for (std::int32_t slot : slots)
      builder.connect(cell * fpc + slot, cj,
                      rng_.uniform_real(params_.connection_lo,
                                        params_.connection_hi));
    alive_.push_back({static_cast<fl::NodeKey>(j), cell});
  }

  initial_ = fl::InstanceSnapshot::initial(builder.build());
  next_client_key_ = initial_.next_client_key();
}

fl::Delta ClientStream::make_arrival() {
  const std::int32_t cell = static_cast<std::int32_t>(
      rng_.uniform_u64(static_cast<std::uint64_t>(params_.num_cells)));
  const std::int32_t fpc = params_.facilities_per_cell;
  sample_cell_slots(fpc, params_.client_degree, rng_, scratch_, slots_);
  std::vector<fl::KeyedEdge> edges;
  edges.reserve(slots_.size());
  for (std::int32_t slot : slots_)
    edges.push_back({cell * fpc + slot,
                     rng_.uniform_real(params_.connection_lo,
                                       params_.connection_hi)});
  const fl::NodeKey key = next_client_key_++;
  alive_.push_back({key, cell});
  return fl::Delta::client_arrive(key, std::move(edges));
}

void ClientStream::fill_epoch(std::int32_t count, fl::DeltaLog& log) {
  DFLP_CHECK(count >= 0);
  for (std::int32_t t = 0; t < count; ++t) {
    ++events_emitted_;
    const bool arrive =
        alive_.size() <= 1 || rng_.bernoulli(params_.arrival_fraction);
    if (arrive) {
      log.append(make_arrival());
      continue;
    }
    const auto pick = static_cast<std::size_t>(
        rng_.uniform_u64(static_cast<std::uint64_t>(alive_.size())));
    const fl::NodeKey key = alive_[pick].key;
    alive_[pick] = alive_.back();
    alive_.pop_back();
    log.append(fl::Delta::client_depart(key));
  }
}

}  // namespace dflp::workload
