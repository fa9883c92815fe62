// Unit tests for the smaller memory-subsystem components: home mapping,
// the DRAM controller's bandwidth/latency model, and the outstanding-work
// queries the liveness checks use.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "memory/cache_controller.hpp"
#include "memory/directory.hpp"
#include "memory/line_table.hpp"
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

TEST(MshrTable, OpensMoreMissesThanTheFirstArrayAndFillsInAnyOrder) {
  // Trace replay issues a core's accesses without waiting for earlier
  // misses, so one core can keep many MSHRs open: the table must grow past
  // its first array and close rows in whatever order the fills land.
  sim::Machine m(MachineParams::small(8, 2));
  const Addr stride = Addr(m.geom().num_clusters()) * kLineBytes;
  const Addr base = 0x6000000;
  const std::size_t n = 4 * LineTable<int>::kInitialSlots;
  std::vector<Addr> lines;
  // The first half share one home slice, whose DRAM channel serializes
  // their fetches; each of the second half has a home of its own.
  for (std::size_t i = 0; i < n / 2; ++i) lines.push_back(base + i * stride);
  for (std::size_t i = 0; i < n / 2; ++i)
    lines.push_back(base + n * stride + (i + 1) * kLineBytes);
  std::vector<Cycle> read(n, 0), write(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    m.cache(5).access(lines[i], false, {&read[i], {}});
    // Every third line also gets a store behind the load: it waits in the
    // same MSHR and retries as an upgrade when the shared copy lands.
    if (i % 3 == 0) m.cache(5).access(lines[i], true, {&write[i], {}});
  }
  EXPECT_EQ(m.cache(5).outstanding_misses(), n);
  for (const Addr line : lines)
    EXPECT_STREQ(m.cache(5).holding(line, m.home_slice(line)), "an MSHR");

  ASSERT_TRUE(m.run());
  EXPECT_EQ(m.cache(5).outstanding_misses(), 0u);
  EXPECT_TRUE(m.quiescent());
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_GT(read[i], 0u) << "line " << i;
    if (i % 3 == 0) {
      EXPECT_GT(write[i], read[i]) << "line " << i;
      EXPECT_EQ(m.cache(5).l2().peek(lines[i]), LineState::kModified) << i;
    } else {
      EXPECT_EQ(write[i], 0u);
      EXPECT_EQ(m.cache(5).l2().peek(lines[i]), LineState::kShared) << i;
    }
  }
  // The last fetch queued at the shared slice lands after the first line
  // with a home of its own, which was opened later.
  EXPECT_GT(read[n / 2 - 1], read[n / 2]);
}

TEST(DirectoryTable, QueuedRequestsRunOnARecycledRow) {
  sim::Machine m(MachineParams::small(8, 2));
  const Addr stride = Addr(m.geom().num_clusters()) * kLineBytes;
  const Addr a = 0x7000000;
  const Addr b = a + 3 * stride;  // same home slice as a
  const HubId home = m.home_slice(a);
  ASSERT_EQ(m.home_slice(b), home);

  // Line a: a store, then loads from three cores queued behind it. When
  // the last one completes the slice's only row is freed.
  Cycle a_done[4] = {};
  m.cache(1).access(a, true, {&a_done[0], {}});
  for (CoreId c = 2; c < 5; ++c)
    m.cache(c).access(a, false, {&a_done[c - 1], {}});
  ASSERT_TRUE(m.run());
  EXPECT_EQ(m.directory(home).active_transactions(), 0u);
  const std::uint64_t reads_after_a = m.mem_counters().dram_reads;
  EXPECT_EQ(reads_after_a, 1u);  // the loads take the data from the owner

  // Line b: four stores at once. The first opens a transaction on the
  // recycled row, the other three wait in its list and each starts the
  // next transaction on the same row as the one before completes.
  Cycle b_done[4] = {};
  for (CoreId c = 10; c < 14; ++c)
    m.cache(c).access(b, true, {&b_done[c - 10], {}});
  m.events().run(kNeverCycle, m.now() + 60);  // the requests have arrived
  EXPECT_EQ(m.directory(home).active_transactions(), 1u);
  ASSERT_TRUE(m.run());

  EXPECT_TRUE(m.quiescent());
  for (const Cycle t : a_done) EXPECT_GT(t, 0u);
  for (const Cycle t : b_done) EXPECT_GT(t, 0u);
  // A fresh transaction's state on the recycled row: the first store had
  // no data at the home and fetched it; the others took it from the owner.
  EXPECT_EQ(m.mem_counters().dram_reads, reads_after_a + 1);
  EXPECT_EQ(m.mem_counters().dir_reads, 8u);  // one per request
  int owners = 0;
  for (CoreId c = 10; c < 14; ++c)
    owners += m.cache(c).l2().peek(b) == LineState::kModified;
  EXPECT_EQ(owners, 1);
}

TEST(L1Hit, OneProbeServesWhatTheL2AllowsUnderValidation) {
  // fast_access decides from the L1-D copy alone; with validation armed it
  // checks on every call that the copy carries its L2 state, so each step
  // below that changes a state also checks the L1-D followed.
  sim::Machine m(MachineParams::small(8, 2));
  m.set_validation(true);
  mem::CacheController& c1 = m.cache(1);
  const auto run_access = [&m](CoreId c, Addr a, bool write) {
    Cycle done = 0;
    m.cache(c).access(a, write, {&done, {}});
    ASSERT_TRUE(m.run());
    EXPECT_GT(done, 0u);
  };
  const Addr a = 0x8000000;

  // Read miss: the shared copy serves loads, not stores.
  run_access(1, a, false);
  EXPECT_TRUE(c1.fast_access(a, false));
  EXPECT_FALSE(c1.fast_access(a, true));
  // Upgrade: the store takes the line Modified in both levels.
  run_access(1, a, true);
  EXPECT_EQ(c1.l2().peek(a), LineState::kModified);
  EXPECT_TRUE(c1.fast_access(a, true));
  // WbReq: a load at core 2 demotes the owner's copies to Shared.
  run_access(2, a, false);
  EXPECT_EQ(c1.l2().peek(a), LineState::kShared);
  EXPECT_TRUE(c1.fast_access(a, false));
  EXPECT_FALSE(c1.fast_access(a, true));

  // L1-D eviction: four more lines in a's L1-D set (128 sets) push it out
  // of the L1-D only; the next load refills it from the L2.
  const Addr l1_stride = 128 * kLineBytes;
  for (Addr i = 1; i <= 4; ++i) run_access(1, a + i * l1_stride, false);
  EXPECT_FALSE(c1.fast_access(a, false));
  EXPECT_EQ(c1.l2().peek(a), LineState::kShared);
  run_access(1, a, false);
  EXPECT_TRUE(c1.fast_access(a, false));

  // L2 eviction: eight more stores into a's L2 set (512 sets) take the
  // L1-D copy with the L2 one.
  const Addr l2_stride = 512 * kLineBytes;
  for (Addr i = 1; i <= 8; ++i) run_access(1, a + i * l2_stride, true);
  EXPECT_EQ(c1.l2().peek(a), LineState::kInvalid);
  EXPECT_FALSE(c1.fast_access(a, false));
  const Addr last = a + 8 * l2_stride;
  EXPECT_TRUE(c1.fast_access(last, true));

  // Invalidation: a store at core 3 removes core 1's Modified copy.
  run_access(3, last, true);
  EXPECT_FALSE(c1.fast_access(last, false));
  EXPECT_TRUE(m.cache(3).fast_access(last, true));
  EXPECT_TRUE(m.quiescent());
}

TEST(Protocol, MessageNamesAreStable) {
  EXPECT_STREQ(to_string(CohType::kShReq), "ShReq");
  EXPECT_STREQ(to_string(CohType::kExRep), "ExRep");
  EXPECT_STREQ(to_string(CohType::kDirtyWb), "DirtyWb");
  EXPECT_STREQ(to_string(CohType::kEvictNotify), "EvictNotify");
}

}  // namespace
}  // namespace atacsim::mem
