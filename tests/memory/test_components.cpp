// Unit tests for the smaller memory-subsystem components: home mapping,
// the DRAM controller's bandwidth/latency model, and the outstanding-work
// queries the liveness checks use.
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
  const Addr line = a & ~Addr{kLineBytes - 1};
  Cycle finished = 0;
  m.cache(3).access(a, true, {&finished, {}});
  // Before draining: the miss is outstanding, as one MSHR on the accessed
  // line.
  EXPECT_FALSE(m.quiescent());
  EXPECT_EQ(m.cache(3).outstanding_misses(), 1u);
  EXPECT_STREQ(m.cache(3).holding(line, m.home_slice(line)), "an MSHR");
  m.run();
  EXPECT_GT(finished, 0u);
  EXPECT_TRUE(m.quiescent());
  EXPECT_EQ(m.cache(3).outstanding_misses(), 0u);
  for (HubId h = 0; h < 16; ++h)
    EXPECT_EQ(m.directory(h).active_transactions(), 0u) << "slice " << h;
}

TEST(DebugIntrospection, DirectoryTxnSnapshotFields) {
  sim::Machine m(MachineParams::small(8, 2));
  const Addr a = 0x4500000;
  const Addr line = a & ~Addr{kLineBytes - 1};
  const HubId home = m.home_slice(line);
  Cycle done = 0;
  m.cache(0).access(a, false, {&done, {}});
  // Let the request reach its home (DRAM takes 113 cycles, so the
  // transaction is still active at cycle 60): one transaction, at the
  // line's home, and the requester is the one core waiting on the line.
  m.events().run(kNeverCycle, 61);
  for (HubId h = 0; h < 16; ++h)
    EXPECT_EQ(m.directory(h).active_transactions(), h == home ? 1u : 0u)
        << "slice " << h;
  for (CoreId c = 0; c < m.params().num_cores; ++c) {
    const char* held = m.cache(c).holding(line, home);
    if (c == 0)
      EXPECT_STREQ(held, "an MSHR");
    else
      EXPECT_EQ(held, nullptr) << "core " << c;
  }
  m.run();
  EXPECT_GT(done, 0u);
}

TEST(Protocol, MessageNamesAreStable) {
  EXPECT_STREQ(to_string(CohType::kShReq), "ShReq");
  EXPECT_STREQ(to_string(CohType::kExRep), "ExRep");
  EXPECT_STREQ(to_string(CohType::kDirtyWb), "DirtyWb");
  EXPECT_STREQ(to_string(CohType::kEvictNotify), "EvictNotify");
}

}  // namespace
}  // namespace atacsim::mem
