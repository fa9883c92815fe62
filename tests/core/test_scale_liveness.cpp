// Regression tests for the message-reordering liveness bugs that only
// manifest under real contention at scale: (1) a short coherence message
// overtaking a data reply through the sibling StarNet, and (2) a stale
// broadcast invalidate arriving behind a later response and destroying the
// line it granted. Both deadlock the directory if mishandled.
#include <gtest/gtest.h>

#include "core/program.hpp"
#include "core/sync.hpp"
#include "sim/address_space.hpp"

namespace atacsim::core {
namespace {

TEST(ScaleLiveness, ContendedMixedTrafficCompletesAt256Cores) {
  auto p = MachineParams::small(16, 4);
  p.network = NetworkKind::kAtacPlus;
  p.num_hw_sharers = 4;
  constexpr int kCores = 256;
  sim::AddressSpace space;
  Barrier bar(kCores, space);
  const auto v = space.array<std::uint64_t>(1 << 13);
  Program prog(p);
  prog.spawn_all(
      {[&bar, v](CoreCtx& c) -> Task {
         Barrier::Sense s;
         const int n = 1 << 13;
         const int per = n / kCores;
         for (int it = 0; it < 3; ++it) {
           for (int i = c.id() * per; i < (c.id() + 1) * per; ++i) {
             // Deliberately racy cross-core read mix: maximizes crossed
             // invalidations, upgrades and broadcast/unicast reordering.
             const auto x = co_await c.read(
                 &v[static_cast<std::size_t>((i * 17) & (n - 1))]);
             co_await c.write(&v[static_cast<std::size_t>(i)], x + 1);
           }
           co_await bar.wait(c, s);
         }
       },
       &space},
      kCores);
  const auto r = prog.run(500'000'000);
  ASSERT_TRUE(r.finished) << "deadlock: completion=" << r.completion_cycles;
  EXPECT_TRUE(prog.machine().quiescent());
  EXPECT_GT(r.mem.bcast_invalidations, 10u);
}

TEST(ScaleLiveness, ClusterRoutingForcesOnetReorderPressure) {
  // Cluster routing maximizes ONet usage -> maximal divergence between the
  // paths a broadcast and a unicast take.
  auto p = MachineParams::small(16, 4);
  p.network = NetworkKind::kAtacPlus;
  p.routing = RoutingPolicy::kCluster;
  p.num_hw_sharers = 2;
  constexpr int kCores = 256;
  sim::AddressSpace space;
  const auto v = space.array<std::uint64_t>(256);
  Program prog(p);
  prog.spawn_all({[v](CoreCtx& c) -> Task {
                    for (int i = 0; i < 24; ++i) {
                      const std::size_t idx = static_cast<std::size_t>(
                          (c.id() * 7 + i * 13) & 255);
                      co_await c.rmw(&v[idx],
                                     [](std::uint64_t x) { return x + 1; });
                    }
                  },
                  &space},
                 kCores);
  const auto r = prog.run(500'000'000);
  ASSERT_TRUE(r.finished);
  std::uint64_t total = 0;
  for (auto x : v) total += x;
  EXPECT_EQ(total, 256u * 24u);  // every RMW applied exactly once
}

}  // namespace
}  // namespace atacsim::core
