// Execution-layer tests: coroutine kernels over the simulated machine.
// Every word a kernel touches lives in the test's address space, so the
// suite also passes with ATACSIM_VALIDATE=1.
#include <gtest/gtest.h>

#include <stdexcept>

#include "core/program.hpp"
#include "core/sync.hpp"
#include "sim/address_space.hpp"

namespace atacsim::core {
namespace {

MachineParams small(NetworkKind net = NetworkKind::kAtacPlus) {
  auto p = MachineParams::small(8, 2);
  p.network = net;
  return p;
}

TEST(Program, ComputeAdvancesLocalClockAndCountsInstructions) {
  Program prog(small());
  prog.spawn_all(
      [](CoreCtx& c) -> Task<void> { co_await c.compute(1000); }, 4);
  const auto r = prog.run();
  EXPECT_TRUE(r.finished);
  EXPECT_EQ(r.core.instructions, 4000u);
  EXPECT_GE(r.completion_cycles, 1000u);
  EXPECT_LT(r.completion_cycles, 1100u);
}

TEST(Program, SpawnAllRefusesMoreKernelsThanCores) {
  Program prog(small());
  const int cores = prog.machine().params().num_cores;
  auto idle = [](CoreCtx&) -> Task<void> { co_return; };
  EXPECT_THROW(prog.spawn_all(idle, cores + 1), std::invalid_argument);
  prog.spawn_all(idle, cores);
  EXPECT_TRUE(prog.run().finished);
}

TEST(Program, LoadsAndStoresMoveRealData) {
  sim::AddressSpace space;
  const auto v = space.array<std::uint64_t>(64);
  Program prog(small());
  prog.spawn_all({[v](CoreCtx& c) -> Task<void> {
                    for (std::size_t i = 0; i < 64; ++i) {
                      const auto x = co_await c.read(&v[i]);
                      co_await c.write(&v[i], x + 1);
                    }
                  },
                  &space},
                 1);
  const auto r = prog.run();
  EXPECT_TRUE(r.finished);
  for (auto x : v) EXPECT_EQ(x, 1u);
}

TEST(Program, MissesCostMoreThanHits) {
  sim::AddressSpace space;
  const auto v = space.array<std::uint64_t>(1024);
  auto body = [v](CoreCtx& c) -> Task<void> {
    // Stride 2 touches every 16-byte translation granule, so the sweep
    // covers all 128 simulated lines regardless of how first-touch
    // translation packs granules into frames.
    for (int rep = 0; rep < 2; ++rep)
      for (std::size_t i = 0; i < 1024; i += 2) co_await c.read(&v[i]);
  };
  Program prog(small());
  prog.spawn_all({body, &space}, 1);
  const auto r = prog.run();
  EXPECT_TRUE(r.finished);
  // First sweep misses every line (DRAM), second sweep hits; completion is
  // dominated by the first sweep.
  EXPECT_GT(r.completion_cycles, 1000u);
  EXPECT_GT(r.mem.dram_reads, 100u);
}

TEST(Program, SharedCounterUnderLockIsExact) {
  struct Shared {
    Lock lock;
    std::uint64_t counter = 0;
  };
  sim::AddressSpace space;
  Shared& s = space.make<Shared>();
  constexpr int kCores = 16;
  constexpr int kIters = 10;
  Program prog(small());
  prog.spawn_all({[&s](CoreCtx& c) -> Task<void> {
                    for (int i = 0; i < kIters; ++i) {
                      co_await s.lock.acquire(c);
                      const auto v = co_await c.read(&s.counter);
                      co_await c.compute(5);
                      co_await c.write(&s.counter, v + 1);
                      co_await s.lock.release(c);
                    }
                  },
                  &space},
                 kCores);
  const auto r = prog.run(100'000'000);
  ASSERT_TRUE(r.finished);
  EXPECT_EQ(s.counter, static_cast<std::uint64_t>(kCores) * kIters);
}

TEST(Program, RmwIsAtomicWithoutLock) {
  sim::AddressSpace space;
  std::uint64_t& w = space.make<std::uint64_t>();
  constexpr int kCores = 32;
  Program prog(small());
  prog.spawn_all({[&w](CoreCtx& c) -> Task<void> {
                    for (int i = 0; i < 8; ++i)
                      co_await c.rmw(&w, [](std::uint64_t v) { return v + 1; });
                  },
                  &space},
                 kCores);
  const auto r = prog.run(100'000'000);
  ASSERT_TRUE(r.finished);
  EXPECT_EQ(w, static_cast<std::uint64_t>(kCores) * 8);
}

TEST(Program, BarrierSeparatesPhases) {
  constexpr int kCores = 64;
  struct Shared {
    std::uint64_t phase1[kCores];
    std::uint64_t sum;
    Lock lock;
  };
  sim::AddressSpace space;
  Barrier bar(kCores, space);
  Shared& s = space.make<Shared>();
  Program prog(small());
  prog.spawn_all({[&bar, &s](CoreCtx& c) -> Task<void> {
                    Barrier::Sense sense;
                    co_await c.write<std::uint64_t>(&s.phase1[c.id()], 7);
                    co_await bar.wait(c, sense);
                    // After the barrier every phase-1 write must be visible.
                    std::uint64_t local = 0;
                    for (int i = 0; i < kCores; ++i)
                      local += co_await c.read(&s.phase1[i]);
                    co_await s.lock.acquire(c);
                    const auto v = co_await c.read(&s.sum);
                    co_await c.write(&s.sum, v + local);
                    co_await s.lock.release(c);
                  },
                  &space},
                 kCores);
  const auto r = prog.run(500'000'000);
  ASSERT_TRUE(r.finished);
  EXPECT_EQ(s.sum, 7ull * kCores * kCores);
}

TEST(Program, BarrierReleaseTriggersBroadcastInvalidation) {
  // 64 spinners share the sense flag; the releasing write must overflow the
  // k=4 pointers and broadcast (ACKwise) — the paper's traffic source.
  constexpr int kCores = 64;
  sim::AddressSpace space;
  Barrier bar(kCores, space);
  auto p = small();
  p.num_hw_sharers = 4;
  Program prog(p);
  prog.spawn_all({[&bar](CoreCtx& c) -> Task<void> {
                    Barrier::Sense s;
                    for (int it = 0; it < 3; ++it) {
                      co_await c.compute(
                          10 + static_cast<std::uint64_t>(c.id()));
                      co_await bar.wait(c, s);
                    }
                  },
                  &space},
                 kCores);
  const auto r = prog.run(500'000'000);
  ASSERT_TRUE(r.finished);
  EXPECT_GE(r.mem.bcast_invalidations, 2u);
  EXPECT_GT(r.net.bcast_packets, 0u);
}

TEST(Program, DeterministicCompletionAcrossRuns) {
  auto once = [] {
    sim::AddressSpace space;
    const auto v = space.array<std::uint64_t>(256);
    Program prog(small());
    prog.spawn_all({[v](CoreCtx& c) -> Task<void> {
                      for (int i = c.id(); i < 256; i += 64)
                        co_await c.rmw(&v[static_cast<std::size_t>(i)],
                                       [](std::uint64_t x) { return x + 1; });
                    },
                    &space},
                   64);
    return prog.run().completion_cycles;
  };
  EXPECT_EQ(once(), once());
}

TEST(Program, NetworkChoiceChangesTiming) {
  // The same program completes in different times on different networks —
  // the end-to-end back-pressure the paper's methodology insists on.
  auto run_on = [](NetworkKind net) {
    sim::AddressSpace space;
    const auto v = space.array<std::uint64_t>(512);
    auto p = small(net);
    p.r_thres = 4;  // 8-wide mesh: give the ONet real unicast work
    Program prog(p);
    prog.spawn_all({[v](CoreCtx& c) -> Task<void> {
                      for (int rep = 0; rep < 4; ++rep)
                        for (std::size_t i = 0; i < 512; i += 8)
                          co_await c.rmw(&v[i], [](std::uint64_t x) {
                            return x + 1;
                          });
                    },
                    &space},
                   64);
    return prog.run(1'000'000'000).completion_cycles;
  };
  const auto t_atac = run_on(NetworkKind::kAtacPlus);
  const auto t_pure = run_on(NetworkKind::kEMeshPure);
  EXPECT_NE(t_atac, t_pure);
}

TEST(Program, ManyCoreBarrierStressQuiesces) {
  constexpr int kCores = 64;
  sim::AddressSpace space;
  Barrier bar(kCores, space);
  Program prog(small());
  prog.spawn_all({[&bar](CoreCtx& c) -> Task<void> {
                    Barrier::Sense s;
                    for (int it = 0; it < 10; ++it) co_await bar.wait(c, s);
                  },
                  &space},
                 kCores);
  const auto r = prog.run(1'000'000'000);
  ASSERT_TRUE(r.finished);
  EXPECT_TRUE(prog.machine().quiescent());
}

}  // namespace
}  // namespace atacsim::core
