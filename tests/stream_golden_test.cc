// Per-epoch goldens for the streaming service (E13).
//
// The lines below were committed from the service that rebuilt every
// epoch's snapshot through InstanceBuilder and re-partitioned it with a
// union-find over all nodes. Each line pins one warm-started epoch: the
// bits of its cost and of its LP value, rounds and messages, the component
// counts (all / solved / reused), the five recourse counts (facilities
// opened / closed, clients reassigned / arrived / departed) and an FNV-1a
// hash of the dense solution. Any change to how an epoch is applied,
// partitioned, reused or diffed must reproduce every line.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "fl/delta.h"
#include "mixed_stream.h"
#include "service/streaming_solver.h"
#include "workload/stream.h"

namespace dflp::service {
namespace {

/// FNV-1a over the solution's shape, open flags and assignment, each as
/// four little-endian bytes.
std::uint64_t solution_hash(const StreamingSolver& s) {
  const fl::Instance& inst = s.snapshot().instance();
  std::uint64_t h = 0xCBF29CE484222325ULL;
  const auto absorb = [&h](std::int32_t value) {
    const auto v = static_cast<std::uint32_t>(value);
    for (int b = 0; b < 4; ++b) {
      h ^= (v >> (8 * b)) & 0xFFu;
      h *= 0x100000001B3ULL;
    }
  };
  absorb(inst.num_facilities());
  absorb(inst.num_clients());
  for (fl::FacilityId i = 0; i < inst.num_facilities(); ++i)
    absorb(s.solution().is_open(i) ? 1 : 0);
  for (fl::ClientId j = 0; j < inst.num_clients(); ++j)
    absorb(s.solution().assignment(j));
  return h;
}

std::string epoch_line(const StreamingSolver& s) {
  const EpochReport& r = s.last_report();
  const Recourse& rc = r.recourse;
  std::ostringstream os;
  os << "e" << r.epoch << std::hex
     << " cost=" << std::bit_cast<std::uint64_t>(r.cost)
     << " frac=" << std::bit_cast<std::uint64_t>(r.fractional_value)
     << std::dec << " rounds=" << r.rounds << " msgs=" << r.messages
     << " comps=" << r.components << "/" << r.solved_components << "/"
     << r.reused_components << " recourse=" << rc.facilities_opened << "/"
     << rc.facilities_closed << "/" << rc.clients_reassigned << "/"
     << rc.clients_arrived << "/" << rc.clients_departed << std::hex
     << " sol=" << solution_hash(s);
  return os.str();
}

StreamingOptions golden_options(const core::InstanceBounds& bounds,
                                SolveEngine engine) {
  StreamingOptions opt;
  opt.params.k = 4;
  opt.params.seed = 42;
  opt.bounds = bounds;
  opt.engine = engine;
  return opt;
}

/// 5 epochs of 15 ClientStream events (arrivals and departures only).
std::vector<std::string> run_client_stream(SolveEngine engine) {
  workload::StreamParams sp;
  sp.num_cells = 12;
  sp.facilities_per_cell = 3;
  sp.initial_clients = 60;
  sp.client_degree = 2;
  sp.arrival_fraction = 0.6;
  workload::ClientStream stream(sp, 7);
  StreamingSolver s(stream.initial_snapshot(),
                    golden_options(stream_bounds(sp, 75), engine));
  std::vector<std::string> lines{epoch_line(s)};
  for (int e = 0; e < 5; ++e) {
    fl::DeltaLog batch;
    stream.fill_epoch(15, batch);
    for (const fl::Delta& d : batch.deltas()) s.ingest(d);
    (void)s.commit_epoch();
    lines.push_back(epoch_line(s));
  }
  return lines;
}

/// 6 epochs of 12 MixedStream deltas (all five kinds) over a sparse
/// 12-cell start.
std::vector<std::string> run_mixed(SolveEngine engine) {
  workload::StreamParams sp;
  sp.num_cells = 12;
  sp.facilities_per_cell = 3;
  sp.initial_clients = 40;
  sp.client_degree = 2;
  const workload::ClientStream start(sp, 5);
  const fl::InstanceSnapshot& snap = start.initial_snapshot();
  constexpr std::int32_t kEvents = 6 * 12;
  core::InstanceBounds bounds;
  bounds.max_facilities = snap.instance().num_facilities() + kEvents;
  bounds.max_network_nodes = snap.instance().num_facilities() +
                             snap.instance().num_clients() + kEvents;
  bounds.min_positive_cost = fl::MixedStream::kConnectionLo;
  bounds.max_cost = fl::MixedStream::kOpeningHi;
  bounds.max_facility_degree = snap.instance().num_clients() + kEvents;

  fl::MixedStream mixed(snap, 0x5EED);
  StreamingSolver s(snap, golden_options(bounds, engine));
  std::vector<std::string> lines{epoch_line(s)};
  for (int e = 0; e < 6; ++e) {
    fl::DeltaLog batch;
    mixed.fill_epoch(12, batch);
    for (const fl::Delta& d : batch.deltas()) s.ingest(d);
    (void)s.commit_epoch();
    lines.push_back(epoch_line(s));
  }
  return lines;
}

void expect_lines(const std::vector<std::string>& got,
                  const std::vector<std::string>& golden) {
  ASSERT_EQ(got.size(), golden.size());
  for (std::size_t e = 0; e < got.size(); ++e)
    EXPECT_EQ(got[e], golden[e]) << "epoch " << e;
}

TEST(StreamGolden, ClientStreamMwGreedy) {
  expect_lines(run_client_stream(SolveEngine::kMwGreedy), {
      "e0 cost=40a4a86b68aba2c0 frac=0 rounds=29 msgs=342 comps=12/12/0 recourse=27/0/0/60/0 sol=7df80fd3e3fbf9a4",
      "e1 cost=40a4099c605828e0 frac=0 rounds=29 msgs=255 comps=12/9/3 recourse=0/1/0/7/8 sol=d88145f4dc72b415",
      "e2 cost=40a4e2cdcfd12627 frac=0 rounds=29 msgs=286 comps=13/11/2 recourse=2/1/2/8/5 sol=60e70612a902c199",
      "e3 cost=40a2bd183697f906 frac=0 rounds=25 msgs=229 comps=13/7/6 recourse=0/2/2/5/6 sol=1f3f9ef1a7144490",
      "e4 cost=40a5ffb9b7886de4 frac=0 rounds=29 msgs=231 comps=13/8/5 recourse=3/0/4/8/5 sol=db91f8278e0287ff",
      "e5 cost=40a688d07b486786 frac=0 rounds=21 msgs=287 comps=13/9/4 recourse=1/1/3/8/5 sol=3f6cd6b462469c19",
  });
}

TEST(StreamGolden, ClientStreamPipeline) {
  expect_lines(run_client_stream(SolveEngine::kPipeline), {
      "e0 cost=40a4bdc2c78ae6de frac=40a4be18c295ea39 rounds=59 msgs=666 comps=12/12/0 recourse=27/0/0/60/0 sol=f1cd2282fb6f7126",
      "e1 cost=40a5b47ced518805 frac=40a5b4c96e4182f0 rounds=59 msgs=504 comps=12/9/3 recourse=1/0/0/7/8 sol=5a957a150e4cc034",
      "e2 cost=40a572753e25e0e3 frac=40a572b744dd73a4 rounds=59 msgs=561 comps=13/11/2 recourse=1/1/2/8/5 sol=a28e2668ad2b9339",
      "e3 cost=40a3248c6e3ae25a frac=40a324e46eeec807 rounds=59 msgs=444 comps=13/7/6 recourse=0/2/0/5/6 sol=2a30ed0c5e91dcb0",
      "e4 cost=40a867230db64936 frac=40a8674da72ac8dc rounds=59 msgs=468 comps=13/8/5 recourse=5/1/3/8/5 sol=25dfa920c670295f",
      "e5 cost=40a7ae009e8a41c7 frac=40a7ae32b82181d5 rounds=59 msgs=570 comps=13/9/4 recourse=1/2/2/8/5 sol=8f2c88e07e900b0a",
  });
}

TEST(StreamGolden, MixedKindsMwGreedy) {
  expect_lines(run_mixed(SolveEngine::kMwGreedy), {
      "e0 cost=40ac16b3daa6aaef frac=0 rounds=21 msgs=237 comps=13/13/0 recourse=28/0/0/40/0 sol=592709c18d25d94d",
      "e1 cost=40ab4385343ee47d frac=0 rounds=21 msgs=187 comps=10/6/4 recourse=4/4/5/4/1 sol=4cc51ad2103e99af",
      "e2 cost=40aa3d018f12cc4a frac=0 rounds=21 msgs=175 comps=12/8/4 recourse=2/2/3/2/5 sol=460b7392a03c0b5e",
      "e3 cost=40a9e6708f3a2fd0 frac=0 rounds=21 msgs=191 comps=12/6/6 recourse=0/1/2/1/2 sol=8249d46020c9e6fe",
      "e4 cost=40abe40d8e111a7a frac=0 rounds=29 msgs=197 comps=8/2/6 recourse=5/2/2/4/2 sol=496680a6d9a5a9b3",
      "e5 cost=40ab72c50b50d2dd frac=0 rounds=29 msgs=206 comps=11/7/4 recourse=2/4/2/3/4 sol=201245730473ae55",
      "e6 cost=40aa78a13ee95bcc frac=0 rounds=21 msgs=201 comps=12/7/5 recourse=4/4/4/3/3 sol=54e2f61e159fa8ce",
  });
}

TEST(StreamGolden, MixedKindsPipeline) {
  expect_lines(run_mixed(SolveEngine::kPipeline), {
      "e0 cost=40af6841ed2c0504 frac=40af684b02ce9e63 rounds=55 msgs=394 comps=13/13/0 recourse=33/0/0/40/0 sol=5bb94c7888b4663c",
      "e1 cost=40b11b4a12c70a55 frac=40b11b4ea1a9cd43 rounds=55 msgs=312 comps=10/6/4 recourse=4/1/5/4/1 sol=429c1af3239df99f",
      "e2 cost=40b17d7822ec83e1 frac=40b17d7a779c1dae rounds=55 msgs=297 comps=12/8/4 recourse=2/1/3/2/5 sol=952a3b9e1cf1900f",
      "e3 cost=40b1fa80f3981bee frac=40b1fa834847b5bb rounds=55 msgs=322 comps=12/6/6 recourse=2/1/2/1/2 sol=330ec4beb19023ef",
      "e4 cost=40b272d24df47e8f frac=40b272d4a2a4185d rounds=55 msgs=342 comps=8/2/6 recourse=3/1/2/4/2 sol=d985f809442b5753",
      "e5 cost=40b1314f5d6c184e frac=40b1314f5d6c184e rounds=55 msgs=340 comps=11/7/4 recourse=1/4/2/3/4 sol=e2ba5f10d44a05b4",
      "e6 cost=40b0ab5ee742a03d frac=40b0ab6116aad5d5 rounds=55 msgs=327 comps=12/7/5 recourse=2/3/4/3/3 sol=ccc2848a62c7df3e",
  });
}

}  // namespace
}  // namespace dflp::service
