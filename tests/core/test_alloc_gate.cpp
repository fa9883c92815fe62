// Allocation gate: a whole application run allocates almost nothing per
// simulated event. Event records, delivery slots and MSHR and directory
// rows are reused once a run has reached its peak, so what is left is
// first-touch address frames, the barrier's coroutine frames and the
// growth of reused storage and of the line tables. The counter is
// perfbench's (perfbench/alloc_count.cpp, compiled into this binary), which
// replaces the global operator new.
#include <gtest/gtest.h>

#include <cstdint>

#include "alloc_count.hpp"
#include "apps/app.hpp"
#include "core/program.hpp"

namespace atacsim {
namespace {

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

  core::Program prog(mp);
  // The src/check probes build messages and snapshots; the gate is on the
  // simulator itself.
  prog.machine().set_validation(false);
  prog.spawn_all(app->body());
  const std::uint64_t before = perfbench::allocations();
  const core::RunResult r = prog.run();
  const std::uint64_t allocs = perfbench::allocations() - before;
  const std::uint64_t events = prog.machine().events().dispatched();

  ASSERT_TRUE(r.finished);
  EXPECT_EQ(app->verify(), "");
  ASSERT_GT(events, 100'000u);
  EXPECT_LE(allocs * 10, events)
      << allocs << " allocations for " << events << " events";
}

}  // namespace
}  // namespace atacsim
