#include <gtest/gtest.h>

#include <span>

#include "core/program.hpp"
#include "sim/address_space.hpp"
#include "sim/trace.hpp"

namespace atacsim::sim {
namespace {

MachineParams small() {
  auto p = MachineParams::small(8, 2);
  p.network = NetworkKind::kAtacPlus;
  return p;
}

TEST(Trace, RecorderCapturesEveryAccessWithGaps) {
  AddressSpace space;
  const auto v = space.array<std::uint64_t>(64);
  core::Program prog(small());
  TraceRecorder rec(64);
  prog.set_tracer(&rec);
  prog.spawn_all({[v](core::CoreCtx& c) -> core::Task<void> {
                    for (std::size_t i = 0; i < 8; ++i) {
                      co_await c.read(&v[i]);
                      co_await c.compute(10);
                      co_await c.write<std::uint64_t>(&v[i], 1);
                    }
                  },
                  &space},
                 2);
  ASSERT_TRUE(prog.run().finished);
  const auto trace = rec.take();
  ASSERT_EQ(trace.per_core.size(), 64u);
  EXPECT_EQ(trace.per_core[0].size(), 16u);  // 8 reads + 8 writes
  EXPECT_EQ(trace.per_core[1].size(), 16u);
  EXPECT_EQ(trace.total_records(), 32u);
  // Write follows read by >= 10 compute cycles.
  EXPECT_GE(trace.per_core[0][1].gap, 10u);
  EXPECT_TRUE(trace.per_core[0][1].write);
  EXPECT_FALSE(trace.per_core[0][0].write);
}

TEST(Trace, RecorderSaturatesOutOfOrderIssueTimestamps) {
  // Lax synchronization can roll a core's local clock backwards between
  // accesses. The recorded gap must saturate at zero, not wrap to ~2^64
  // (which the 32-bit clamp would then turn into a bogus 4.3e9-cycle
  // compute stall in every replay).
  TraceRecorder rec(2);
  rec.record(0, 0x100, false, 100);  // first access: gap from t=0
  rec.record(0, 0x140, false, 40);   // clock rolled back: 40 < 100
  rec.record(0, 0x180, true, 70);    // still before the first issue
  const auto trace = rec.take();
  ASSERT_EQ(trace.per_core[0].size(), 3u);
  EXPECT_EQ(trace.per_core[0][0].gap, 100u);
  EXPECT_EQ(trace.per_core[0][1].gap, 0u);   // saturated, not 2^64 - 60
  EXPECT_EQ(trace.per_core[0][2].gap, 30u);  // gaps resume from last issue
}

TEST(Trace, RecorderClampsGapsToFieldWidth) {
  TraceRecorder rec(1);
  rec.record(0, 0x100, false, 5);
  rec.record(0, 0x140, false, 5 + (1ull << 40));  // gap 2^40 > field max
  const auto trace = rec.take();
  ASSERT_EQ(trace.per_core[0].size(), 2u);
  EXPECT_EQ(trace.per_core[0][1].gap, 0xFFFFFFFFu);
}

TEST(Trace, ReplayTouchesTheSameLines) {
  AddressSpace space;
  const auto v = space.array<std::uint64_t>(512);
  core::Program prog(small());
  TraceRecorder rec(64);
  prog.set_tracer(&rec);
  prog.spawn_all({[v](core::CoreCtx& c) -> core::Task<void> {
                    for (int i = c.id(); i < 512; i += 64)
                      co_await c.rmw(&v[static_cast<std::size_t>(i)],
                                     [](std::uint64_t x) { return x + 1; });
                  },
                  &space},
                 64);
  const auto exec = prog.run();
  ASSERT_TRUE(exec.finished);
  const auto trace = rec.take();

  Machine replay_machine(small());
  const auto rep = replay_trace(replay_machine, trace);
  EXPECT_GT(rep.completion_cycles, 0u);
  // Same access stream -> same L1 demand accesses.
  EXPECT_EQ(rep.mem.l1d_reads + rep.mem.l1d_writes,
            exec.mem.l1d_reads + exec.mem.l1d_writes);
  EXPECT_TRUE(replay_machine.quiescent());
}

TEST(Trace, ReplayUnderstatesTheSlowNetworkPenalty) {
  // The methodological point: open-loop replay ignores back-pressure, so
  // the slow-vs-fast network ratio it reports is smaller than the true
  // execution-driven ratio (the error the paper's methodology avoids).
  AddressSpace space;
  auto capture_mp = small();
  core::Program prog(capture_mp);
  TraceRecorder rec(64);
  prog.set_tracer(&rec);
  // Every core read-shares the same 64 elements (multiples of 16, so the
  // sharing is index-structural and survives address translation), then
  // upgrades one line — each upgrade finds > num_hw_sharers readers and
  // broadcasts invalidations, which the photonic network delivers in one
  // shot and the pure mesh serializes as N-1 unicasts. That asymmetric
  // traffic is what makes completion network-sensitive.
  // Each call runs on fresh data.
  auto make_body = [&space]() -> core::AppBody {
    const auto a = space.array<std::uint64_t>(1024);
    return {[a](core::CoreCtx& c) -> core::Task<void> {
              for (int rep = 0; rep < 4; ++rep) {
                for (int i = 0; i < 1024; i += 16)
                  co_await c.read(
                      &a[static_cast<std::size_t>((i + c.id() * 16) & 1023)]);
                co_await c.rmw(&a[static_cast<std::size_t>(c.id() * 16)],
                               [](std::uint64_t x) { return x + 1; });
              }
            },
            &space};
  };
  prog.spawn_all(make_body(), 64);
  ASSERT_TRUE(prog.run(1'000'000'000).finished);
  const auto trace = rec.take();

  auto slow = small();
  slow.network = NetworkKind::kEMeshPure;
  // Execution-driven on the slow network:
  core::Program prog2(slow);
  prog2.spawn_all(make_body(), 64);
  const auto exec_slow = prog2.run(1'000'000'000);
  ASSERT_TRUE(exec_slow.finished);

  // Execution-driven on the fast network (same body, fresh data).
  core::Program prog3(capture_mp);
  prog3.spawn_all(make_body(), 64);
  const auto exec_fast = prog3.run(1'000'000'000);
  ASSERT_TRUE(exec_fast.finished);

  Machine replay_slow_m(slow);
  const auto rep_slow = replay_trace(replay_slow_m, trace);
  Machine replay_fast_m(capture_mp);
  const auto rep_fast = replay_trace(replay_fast_m, trace);

  const double exec_ratio = static_cast<double>(exec_slow.completion_cycles) /
                            exec_fast.completion_cycles;
  const double replay_ratio =
      static_cast<double>(rep_slow.completion_cycles) /
      rep_fast.completion_cycles;
  EXPECT_LT(replay_ratio, exec_ratio);
}

}  // namespace
}  // namespace atacsim::sim
