// Steady-state allocation audit for the SoA arena.
//
// The engine's capacity-recycling contract (netsim/network.h §arena) is
// that once a workload's shapes have been seen, whole rounds run out of
// recycled storage: staging logs, the destination tally, the slot
// permutation, inbox scratch, and the link stamps are all grown once and
// reused. This file replaces the global allocator with a counting
// shim and pins that contract literally — after a short warm-up,
// additional rounds perform ZERO heap allocations, both when every record
// is a broadcast (read by its receivers in pull rounds on an explicit
// graph, fanned out by the scatter on the clique) and when every record is
// a unicast, on an explicit graph and on the implicit congested clique,
// and when nodes sleep, are woken by mail and whole rounds are skipped.
//
// The overrides are process-wide for the whole dflp_tests binary; they
// only count and forward, so the other suites see identical behaviour.
// Every form of `operator new` that can hand a block to the replaced
// `operator delete` is replaced too, the std::nothrow ones included:
// under ASan a block from the library's allocator freed by this shim is an
// alloc-dealloc mismatch.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "netsim/network.h"

namespace {

std::atomic<std::uint64_t> g_news{0};

/// Counts one allocation; nullptr when malloc fails.
void* counted_alloc(std::size_t size) noexcept {
  g_news.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t al) noexcept {
  g_news.fetch_add(1, std::memory_order_relaxed);
  // C11 aligned_alloc wants size to be a multiple of the alignment.
  const auto align = static_cast<std::size_t>(al);
  const std::size_t rounded = (size + align - 1) / align * align;
  return std::aligned_alloc(align, rounded ? rounded : align);
}

void* or_throw(void* p) {
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return or_throw(counted_alloc(size)); }
void* operator new[](std::size_t size) {
  return or_throw(counted_alloc(size));
}
void* operator new(std::size_t size, std::align_val_t align) {
  return or_throw(counted_aligned_alloc(size, align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return or_throw(counted_aligned_alloc(size, align));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return counted_aligned_alloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace dflp {
namespace {

/// All-broadcast storm: every node stages one broadcast record. On an
/// explicit graph every round is dense enough to pull, so each receiver
/// reads its neighbours' records; on the clique the commit scatter fans
/// each one out into degree slots of the arena.
class Broadcaster final : public net::Process {
 public:
  void on_round(net::NodeContext& ctx,
                std::span<const net::Message> in) override {
    received_ += in.size();
    ctx.broadcast(1, {7, 9, 0});
  }

 private:
  std::uint64_t received_ = 0;
};

/// One unicast per node to its first neighbour: one slot per record.
class Unicaster final : public net::Process {
 public:
  void on_round(net::NodeContext& ctx,
                std::span<const net::Message> in) override {
    received_ += in.size();
    ctx.send(ctx.neighbors().front(), 1, {7, 9, 0});
  }

 private:
  std::uint64_t received_ = 0;
};

/// Broadcasts every sixth round and sleeps in between: the receivers are
/// woken by the mail in the next round and sleep again, so the four silent
/// rounds of each period are skipped.
class Napper final : public net::Process {
 public:
  void on_round(net::NodeContext& ctx,
                std::span<const net::Message> in) override {
    received_ += in.size();
    if (ctx.round() % 6 == 0) ctx.broadcast(1, {7, 9, 0});
    ctx.sleep_until((ctx.round() / 6 + 1) * 6);
  }

 private:
  std::uint64_t received_ = 0;
};

/// Ring + 3 random chords per node, same construction as the storm
/// benchmark topology (degree ~8).
template <typename Proc>
std::unique_ptr<net::Network> make_chorded_ring(std::size_t n) {
  net::Network::Options o;
  o.bit_budget = 64;
  o.seed = 1;
  auto net = std::make_unique<net::Network>(n, o);
  Rng topo_rng(0xBE7C417ULL);
  std::set<std::pair<net::NodeId, net::NodeId>> edges;
  const auto norm = [](net::NodeId a, net::NodeId b) {
    return a < b ? std::make_pair(a, b) : std::make_pair(b, a);
  };
  for (std::size_t v = 0; v < n; ++v)
    edges.insert(norm(static_cast<net::NodeId>(v),
                      static_cast<net::NodeId>((v + 1) % n)));
  for (std::size_t v = 0; v < n; ++v)
    for (int c = 0; c < 3; ++c) {
      const auto w = static_cast<net::NodeId>(topo_rng.uniform_u64(n));
      if (w == static_cast<net::NodeId>(v)) continue;
      edges.insert(norm(static_cast<net::NodeId>(v), w));
    }
  for (const auto& [u, v] : edges) net->add_edge(u, v);
  net->finalize();
  for (std::size_t v = 0; v < n; ++v)
    net->set_process(static_cast<net::NodeId>(v), std::make_unique<Proc>());
  return net;
}

/// The congested clique on n nodes (implicit adjacency, no edge list).
template <typename Proc>
std::unique_ptr<net::Network> make_clique(std::size_t n) {
  net::Network::Options o;
  o.topology = net::Topology::kClique;
  o.bit_budget = 64;
  o.seed = 1;
  auto net = std::make_unique<net::Network>(n, o);
  net->finalize();
  for (std::size_t v = 0; v < n; ++v)
    net->set_process(static_cast<net::NodeId>(v), std::make_unique<Proc>());
  return net;
}

/// Warm the network's shapes, then count allocations across a steady-state
/// stretch. The warm-up must cover both log parities a few times so every
/// double-buffered structure has reached its high-water mark.
std::uint64_t steady_state_allocations(net::Network& net) {
  net.run(6);
  const std::uint64_t before = g_news.load(std::memory_order_relaxed);
  net.run(10);
  return g_news.load(std::memory_order_relaxed) - before;
}

TEST(ArenaAllocTest, BroadcastSteadyStateAllocatesNothing) {
  const auto net = make_chorded_ring<Broadcaster>(512);
  EXPECT_EQ(steady_state_allocations(*net), 0u);
  EXPECT_EQ(net->pulled_rounds(), 16u);  // every round ran the pull path
}

TEST(ArenaAllocTest, ScatterModeSteadyStateAllocatesNothing) {
  const auto net = make_chorded_ring<Unicaster>(512);
  EXPECT_EQ(steady_state_allocations(*net), 0u);
}

TEST(ArenaAllocTest, CliqueSteadyStateAllocatesNothing) {
  const auto broadcasts = make_clique<Broadcaster>(128);
  EXPECT_EQ(steady_state_allocations(*broadcasts), 0u);
  EXPECT_EQ(broadcasts->pulled_rounds(), 0u);  // the clique always pushes
  const auto unicasts = make_clique<Unicaster>(128);
  EXPECT_EQ(steady_state_allocations(*unicasts), 0u);
}

TEST(ArenaAllocTest, SleepWakeAndSkipSteadyStateAllocatesNothing) {
  const auto net = make_chorded_ring<Napper>(512);
  EXPECT_EQ(steady_state_allocations(*net), 0u);
  // Rounds 0-15 ran, and only the broadcast rounds 0, 6 and 12 (512 live
  // nodes plus 512 destinations laid out) and the wake rounds 1, 7 and 13
  // (512 live nodes) did transport work; the other ten were skipped.
  EXPECT_EQ(net->cumulative_metrics().rounds, 16u);
  EXPECT_EQ(net->transport_touches(), 3u * (512u + 512u) + 3u * 512u);
}

TEST(ArenaAllocTest, CountingShimIsLive) {
  // Guards the audit itself: if the shim ever stops intercepting the
  // global allocator, the steady-state expectations above would pass
  // vacuously.
  const std::uint64_t before = g_news.load(std::memory_order_relaxed);
  auto* p = new std::uint64_t(42);
  EXPECT_GT(g_news.load(std::memory_order_relaxed), before);
  delete p;
}

TEST(ArenaAllocTest, NothrowNewPairsWithTheShimsDelete) {
  // std::stable_sort takes its temporary buffer from nothrow new and gives
  // it back through operator delete, which the shim replaces.
  std::vector<std::uint64_t> keys(4096);
  Rng rng(7);
  for (std::uint64_t& k : keys) k = rng.uniform_u64(64);
  const std::uint64_t before_sort = g_news.load(std::memory_order_relaxed);
  std::stable_sort(keys.begin(), keys.end());
  EXPECT_GT(g_news.load(std::memory_order_relaxed), before_sort);
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));

  // Explicit nothrow array forms, plain and over-aligned.
  struct alignas(64) Line {
    unsigned char bytes[64];
  };
  const std::uint64_t before = g_news.load(std::memory_order_relaxed);
  auto* words = new (std::nothrow) std::uint64_t[16];
  auto* lines = new (std::nothrow) Line[2];
  ASSERT_NE(words, nullptr);
  ASSERT_NE(lines, nullptr);
  EXPECT_EQ(g_news.load(std::memory_order_relaxed), before + 2);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(lines) % alignof(Line), 0u);
  delete[] words;
  delete[] lines;
}

}  // namespace
}  // namespace dflp
