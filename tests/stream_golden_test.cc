// Per-epoch goldens for the streaming service (E13).
//
// The ClientStream lines were committed from the service that rebuilt
// every epoch's snapshot through InstanceBuilder and re-partitioned it with
// a union-find over all nodes; the BridgingArrivals lines from the service
// that still carried facility opens, closes and edge re-pricing, fed the
// same arrivals and departures. Each line pins one warm-started epoch: the
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

/// 6 epochs of 12 MixedStream deltas (arrivals that often bridge two
/// components, and departures) over a sparse 12-cell start.
std::vector<std::string> run_bridging(SolveEngine engine) {
  workload::StreamParams sp;
  sp.num_cells = 12;
  sp.facilities_per_cell = 3;
  sp.initial_clients = 40;
  sp.client_degree = 2;
  const workload::ClientStream start(sp, 5);
  const fl::InstanceSnapshot& snap = start.initial_snapshot();
  fl::MixedStream mixed(snap, 0x5EED);
  StreamingSolver s(snap, golden_options(stream_bounds(sp, 6 * 12), engine));
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

TEST(StreamGolden, BridgingArrivalsMwGreedy) {
  expect_lines(run_bridging(SolveEngine::kMwGreedy), {
      "e0 cost=40a2e685b162037a frac=0 rounds=29 msgs=217 comps=13/13/0 recourse=20/0/0/40/0 sol=6763f7b06071e98c",
      "e1 cost=40a4d02569cd4879 frac=0 rounds=29 msgs=127 comps=12/7/5 recourse=6/3/5/6/4 sol=42417871afcf41de",
      "e2 cost=40a57fc8fdd8f5ab frac=0 rounds=29 msgs=142 comps=13/9/4 recourse=2/2/0/6/6 sol=e13266031104810b",
      "e3 cost=40a68e645d04d693 frac=0 rounds=29 msgs=119 comps=14/8/6 recourse=1/1/1/6/4 sol=68587153c0d12e52",
      "e4 cost=40a8f9fc4dd47ce3 frac=0 rounds=29 msgs=116 comps=16/7/9 recourse=3/1/2/7/5 sol=d8ef5a542b87e0c",
      "e5 cost=40a7e2708842de1b frac=0 rounds=29 msgs=163 comps=16/8/8 recourse=1/2/0/9/3 sol=574782a472830069",
      "e6 cost=40a6e5f7c7381dca frac=0 rounds=29 msgs=160 comps=17/10/7 recourse=0/1/1/5/5 sol=45f988e2b2fcf6a4",
  });
}

TEST(StreamGolden, BridgingArrivalsPipeline) {
  expect_lines(run_bridging(SolveEngine::kPipeline), {
      "e0 cost=40a4d2078dc633fe frac=40a4d2832bc70297 rounds=59 msgs=420 comps=13/13/0 recourse=23/0/0/40/0 sol=d6c4f347d8b13c3c",
      "e1 cost=40a85a9a2fbf3e56 frac=40a85af23dd787d9 rounds=59 msgs=240 comps=12/7/5 recourse=5/1/4/6/4 sol=b005ab99f687872d",
      "e2 cost=40aa65759aa0ae4e frac=40aa65c069a0f452 rounds=59 msgs=267 comps=13/9/4 recourse=2/1/0/6/6 sol=ac7d54d6d09b1949",
      "e3 cost=40ab7410f9cc8f36 frac=40ab744e63a7533c rounds=59 msgs=222 comps=14/8/6 recourse=1/1/1/6/4 sol=4d71a908570eaa60",
      "e4 cost=40adddc71b982c92 frac=40addde7219a790f rounds=59 msgs=207 comps=16/7/9 recourse=3/1/3/7/5 sol=d5098a83ecdf42cf",
      "e5 cost=40a9fde69cac9f36 frac=40a9fe212560132e rounds=59 msgs=294 comps=16/8/8 recourse=1/4/1/9/3 sol=426d9b56a4d3deb",
      "e6 cost=40a8fe716ca3d97d frac=40a8fe9eee9a2d49 rounds=59 msgs=291 comps=17/10/7 recourse=0/1/0/5/5 sol=d154153e8580466f",
  });
}

}  // namespace
}  // namespace dflp::service
