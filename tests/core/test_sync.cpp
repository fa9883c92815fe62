// Synchronization-library properties: ticket-lock FIFO fairness and mutual
// exclusion, barrier reuse across many rounds, degenerate sizes. Every word
// a kernel touches lives in the test's address space, so the suite also
// passes with ATACSIM_VALIDATE=1.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/program.hpp"
#include "core/sync.hpp"
#include "sim/address_space.hpp"

namespace atacsim::core {
namespace {

MachineParams small() {
  auto p = MachineParams::small(8, 2);
  p.network = NetworkKind::kAtacPlus;
  return p;
}

TEST(Lock, TicketLockGrantsInRequestOrder) {
  sim::AddressSpace space;
  Lock& lock = space.make<Lock>();
  std::vector<int> order;  // host-side, written inside the critical section
  Program prog(small());
  // Stagger arrival so request order is deterministic: core i asks at ~i*500.
  prog.spawn_all({[&lock, &order](CoreCtx& c) -> Task<void> {
                    co_await c.compute(
                        static_cast<std::uint64_t>(c.id()) * 500 + 1);
                    co_await lock.acquire(c);
                    order.push_back(c.id());
                    co_await c.compute(50);
                    co_await lock.release(c);
                  },
                  &space},
                 8);
  ASSERT_TRUE(prog.run(100'000'000).finished);
  ASSERT_EQ(order.size(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Lock, MutualExclusionUnderContention) {
  struct Shared {
    Lock lock;
    int inside = 0;  // host-side
    int max_inside = 0;
    std::uint64_t counter = 0;
  };
  sim::AddressSpace space;
  Shared& s = space.make<Shared>();
  constexpr int kCores = 32, kIters = 6;
  Program prog(small());
  prog.spawn_all({[&s](CoreCtx& c) -> Task<void> {
                    for (int i = 0; i < kIters; ++i) {
                      co_await s.lock.acquire(c);
                      s.inside++;
                      s.max_inside = std::max(s.max_inside, s.inside);
                      const auto v = co_await c.read(&s.counter);
                      co_await c.compute(7);
                      co_await c.write(&s.counter, v + 1);
                      s.inside--;
                      co_await s.lock.release(c);
                    }
                  },
                  &space},
                 kCores);
  ASSERT_TRUE(prog.run(500'000'000).finished);
  EXPECT_EQ(s.max_inside, 1);
  EXPECT_EQ(s.counter, static_cast<std::uint64_t>(kCores) * kIters);
}

TEST(Barrier, ReusableAcrossManyRounds) {
  constexpr int kCores = 64, kRounds = 8;
  struct Stamps {
    std::uint64_t at[kRounds][kCores];
  };
  sim::AddressSpace space;
  Barrier bar(kCores, space);
  Stamps& s = space.make<Stamps>();
  Program prog(small());
  prog.spawn_all(
      {[&bar, &s](CoreCtx& c) -> Task<void> {
         Barrier::Sense sense;
         for (int r = 0; r < kRounds; ++r) {
           co_await c.write<std::uint64_t>(&s.at[r][c.id()],
                                           static_cast<std::uint64_t>(r + 1));
           co_await bar.wait(c, sense);
           // After the barrier, every core's round-r stamp must be visible.
           for (int i = 0; i < kCores; i += 17) {
             const auto v = co_await c.read(&s.at[r][i]);
             if (v != static_cast<std::uint64_t>(r + 1)) co_return;  // fail
           }
         }
       },
       &space},
      kCores);
  ASSERT_TRUE(prog.run(500'000'000).finished);
  for (int r = 0; r < kRounds; ++r)
    for (int i = 0; i < kCores; ++i)
      EXPECT_EQ(s.at[r][i], static_cast<std::uint64_t>(r + 1));
}

TEST(Barrier, SingleParticipantIsANoop) {
  sim::AddressSpace space;
  Barrier bar(1, space);
  Program prog(small());
  prog.spawn_all({[&bar](CoreCtx& c) -> Task<void> {
                    Barrier::Sense s;
                    for (int i = 0; i < 5; ++i) co_await bar.wait(c, s);
                  },
                  &space},
                 1);
  EXPECT_TRUE(prog.run(10'000'000).finished);
}

TEST(Barrier, TreeQuotasCoverAllParticipantCounts) {
  // Non-power-of-fan-in participant counts must neither hang nor release
  // early. (Quota arithmetic edge cases: n = fan-in +- 1, primes.)
  for (int n : {2, 7, 8, 9, 17, 63, 64}) {
    sim::AddressSpace space;
    Barrier bar(n, space);
    Program prog(small());
    int done = 0;
    prog.spawn_all({[&bar, &done](CoreCtx& c) -> Task<void> {
                      Barrier::Sense s;
                      co_await c.compute(
                          static_cast<std::uint64_t>(c.id()) * 13 + 1);
                      co_await bar.wait(c, s);
                      co_await bar.wait(c, s);
                      ++done;
                    },
                    &space},
                   n);
    ASSERT_TRUE(prog.run(100'000'000).finished) << "n=" << n;
    EXPECT_EQ(done, n);
  }
}

}  // namespace
}  // namespace atacsim::core
