// Allocation gates.
//
// A whole application run allocates almost nothing per simulated event.
// Event records, delivery slots and MSHR and directory rows are reused once
// a run has reached its peak, and the Machine's address frame table is
// sized to the address space at the first access, so what is left is the
// growth of reused storage and of the line tables. Coroutine frames are recycled (core/task.hpp), so once the
// cores have reached their deepest nesting a barrier wait allocates
// nothing. The count is perfbench's (perfbench/alloc_count.cpp,
// compiled into this binary), which replaces the global operator new, plus
// the over-aligned forms replaced below, which perfbench's counter does not
// see: 64-byte-aligned cache tag arrays and address-space blocks.
//
// The over-aligned forms also count bytes, which bounds the footprint of
// the paper Machine's tag stores.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>

#include "alloc_count.hpp"
#include "apps/app.hpp"
#include "core/program.hpp"
#include "core/sync.hpp"
#include "sim/machine.hpp"

namespace {

std::atomic<std::uint64_t> g_aligned_allocations{0};
std::atomic<std::uint64_t> g_aligned_bytes{0};

}  // namespace

// The library's array and nothrow aligned forms forward to this one.
void* operator new(std::size_t n, std::align_val_t al) {
  g_aligned_allocations.fetch_add(1, std::memory_order_relaxed);
  g_aligned_bytes.fetch_add(n, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(al);
  // aligned_alloc wants a size that is a multiple of the alignment.
  if (void* p = std::aligned_alloc(a, ((n ? n : 1) + a - 1) / a * a))
    return p;
  throw std::bad_alloc();
}

void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace atacsim {
namespace {

/// Every heap allocation so far, of any alignment.
std::uint64_t allocations() {
  return perfbench::allocations() +
         g_aligned_allocations.load(std::memory_order_relaxed);
}

TEST(AllocGate, FmmRunAllocatesUnderOneBlockPerTenEvents) {
  // perfbench's small fmm_unicast_emesh scenario: fmm on the 8x2 machine
  // over EMesh-BCast, scale 0.1, seed 1.
  MachineParams mp = MachineParams::small(8, 2);
  mp.network = NetworkKind::kEMeshBCast;
  apps::AppConfig cfg;
  cfg.num_cores = mp.num_cores;
  cfg.scale = 0.1;
  cfg.seed = 1;
  auto app = apps::make_app("fmm", cfg);

  // The src/check probes build messages and snapshots; the gate is on the
  // simulator itself.
  core::Program prog(mp, nullptr, /*validate=*/false);
  prog.spawn_all(app->body());
  const std::uint64_t before = allocations();
  const core::RunResult r = prog.run();
  const std::uint64_t allocs = allocations() - before;
  const std::uint64_t events = prog.machine().events().dispatched();

  ASSERT_TRUE(r.finished);
  EXPECT_EQ(app->verify(), "");
  ASSERT_GT(events, 100'000u);
  EXPECT_LE(allocs * 10, events)
      << allocs << " allocations for " << events << " events";
}

/// Allocations made by Program::run of a body in which every core of the
/// 8x2 machine waits `waits` times at one barrier.
std::uint64_t barrier_run_allocations(int waits) {
  const MachineParams mp = MachineParams::small(8, 2);
  sim::AddressSpace space;
  core::Barrier barrier(mp.num_cores, space);
  core::Program prog(mp, nullptr, /*validate=*/false);
  prog.spawn_all({[&barrier, waits](core::CoreCtx& c) -> core::Task {
                    core::Barrier::Sense sense;
                    for (int i = 0; i < waits; ++i)
                      co_await barrier.wait(c, sense);
                  },
                  &space});
  const std::uint64_t before = allocations();
  const core::RunResult r = prog.run();
  const std::uint64_t allocs = allocations() - before;
  EXPECT_TRUE(r.finished) << waits << " waits";
  return allocs;
}

TEST(AllocGate, BarrierWaitsPastTheFirstAllocateNoFrames) {
  // Every wait is a coroutine frame. Recycled, the frames of later waits
  // reuse those of the first, so twenty times the waits cost no more.
  const std::uint64_t two = barrier_run_allocations(2);
  const std::uint64_t forty = barrier_run_allocations(40);
  EXPECT_LE(forty, two) << forty << " allocations for 40 waits, " << two
                        << " for 2";
}

TEST(AllocGate, PaperMachineTagStoresTakeEighteenMiB) {
  // The paper Machine's over-aligned allocations are its cache tag stores:
  // 1,024 cores, each with a 32 KB 4-way L1-D and a 256 KB 8-way L2 of
  // 64 B lines, so 512 + 4,096 ways of one 4-byte word each.
  constexpr std::uint64_t kTagStoreBytes = 1024ull * (512 + 4096) * 4;
  static_assert(kTagStoreBytes == 18ull << 20);
  const MachineParams mp = MachineParams::paper();
  ASSERT_EQ(mp.num_cores, 1024);
  const std::uint64_t before = g_aligned_bytes.load(std::memory_order_relaxed);
  auto machine = std::make_unique<sim::Machine>(mp, nullptr, false);
  const std::uint64_t bytes =
      g_aligned_bytes.load(std::memory_order_relaxed) - before;
  EXPECT_GT(bytes, 0u) << "the counter must see the tag stores";
  EXPECT_LE(bytes, kTagStoreBytes) << bytes << " over-aligned bytes";
}

}  // namespace
}  // namespace atacsim
