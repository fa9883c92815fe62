// Unit tests for the smaller memory-subsystem components: home mapping,
// the DRAM controller's bandwidth/latency model, and the directory/cache
// debug introspection used by the liveness checks.
#include <gtest/gtest.h>

#include <set>

#include "memory/cache_controller.hpp"
#include "memory/directory.hpp"
#include "sim/event_queue.hpp"
#include "sim/machine.hpp"

namespace atacsim::mem {
namespace {

TEST(HomeSlice, InterleavesLinesAcrossAllSlices) {
  const sim::Machine m(MachineParams::small(8, 2));
  const int slices = m.geom().num_clusters();
  EXPECT_EQ(slices, 16);
  std::set<HubId> seen;
  for (Addr line = 0; line < Addr(slices) * kLineBytes; line += kLineBytes)
    seen.insert(m.home_slice(line));
  EXPECT_EQ(seen.size(), 16u);  // consecutive lines hit every slice
  // The map takes line-aligned input by contract; adjacent lines differ and
  // the interleave wraps after one line per slice.
  EXPECT_NE(m.home_slice(0), m.home_slice(kLineBytes));
  EXPECT_EQ(m.home_slice(0), m.home_slice(Addr(slices) * kLineBytes));
}

struct MemCtrlHarness {
  MachineParams mp_ = MachineParams::paper();
  MemCounters ctr_;
  EventQueue evq_;
  MemController mc{evq_, ctr_, mp_};
};

TEST(MemController, SingleFetchTakesLatencyPlusSerialization) {
  MemCtrlHarness h;
  // 64 B / 5 B-per-cycle = 13 cycles + 100 cycles latency.
  EXPECT_EQ(h.mc.request(false), 113u);
  EXPECT_EQ(h.ctr_.dram_reads, 1u);
}

TEST(MemController, BandwidthChannelSerializesBursts) {
  MemCtrlHarness h;
  std::vector<Cycle> done;
  for (int i = 0; i < 4; ++i) done.push_back(h.mc.request(false));
  ASSERT_EQ(done.size(), 4u);
  // Latency overlaps but the 13-cycle line transfers serialize.
  EXPECT_EQ(done[0], 113u);
  EXPECT_EQ(done[1], 126u);
  EXPECT_EQ(done[3], 152u);
  EXPECT_EQ(h.ctr_.dram_reads, 4u);
}

TEST(MemController, WritesCountSeparately) {
  MemCtrlHarness h;
  h.mc.request(true);
  EXPECT_EQ(h.ctr_.dram_writes, 1u);
  EXPECT_EQ(h.ctr_.dram_reads, 0u);
}

TEST(DebugIntrospection, ReportsOutstandingWork) {
  sim::Machine m(MachineParams::small(8, 2));
  const Addr a = 0x4400000;
  Cycle finished = 0;
  m.cache(3).access(a, true, {&finished, {}});
  // Before draining: the miss is outstanding somewhere (cache MSHR and/or
  // directory transaction).
  EXPECT_FALSE(m.quiescent());
  const auto dbg = m.cache(3).debug_state();
  ASSERT_EQ(dbg.mshr_lines.size(), 1u);
  EXPECT_EQ(dbg.mshr_lines[0], a & ~63ull);
  m.run();
  EXPECT_GT(finished, 0u);
  EXPECT_TRUE(m.quiescent());
  EXPECT_TRUE(m.cache(3).debug_state().mshr_lines.empty());
  for (HubId h = 0; h < 16; ++h)
    EXPECT_TRUE(m.directory(h).debug_active().empty());
}

TEST(DebugIntrospection, DirectoryTxnSnapshotFields) {
  sim::Machine m(MachineParams::small(8, 2));
  const Addr a = 0x4500000;
  Cycle done = 0;
  m.cache(0).access(a, false, {&done, {}});
  // Let the request reach its home (DRAM takes 113 cycles, so the
  // transaction is still active at cycle 60).
  m.events().run(kNeverCycle, 61);
  bool found = false;
  for (HubId h = 0; h < 16 && !found; ++h) {
    for (const auto& t : m.directory(h).debug_active()) {
      EXPECT_EQ(t.line, a & ~63ull);
      EXPECT_EQ(t.requester, 0);
      found = true;
    }
  }
  EXPECT_TRUE(found) << "ShReq should be active at its home slice";
  m.run();
}

TEST(Protocol, MessageNamesAreStable) {
  EXPECT_STREQ(to_string(CohType::kShReq), "ShReq");
  EXPECT_STREQ(to_string(CohType::kExRep), "ExRep");
  EXPECT_STREQ(to_string(CohType::kDirtyWb), "DirtyWb");
  EXPECT_STREQ(to_string(CohType::kEvictNotify), "EvictNotify");
}

}  // namespace
}  // namespace atacsim::mem
