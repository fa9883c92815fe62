// Protocol integration tests: drive raw loads/stores through a small Machine
// and assert the MSI + ACKwise/Dir_kB behaviour the paper describes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "sim/machine.hpp"

namespace atacsim {
// gtest prints ProtocolStormTest's (coherence, network) tuples through these;
// argument-dependent lookup finds them beside the enums.
static void PrintTo(CoherenceKind c, std::ostream* os) { *os << to_string(c); }
static void PrintTo(NetworkKind n, std::ostream* os) { *os << to_string(n); }
}  // namespace atacsim

namespace atacsim::sim {
namespace {

// Arm the cross-layer invariant probes (src/check) for every machine and
// event queue in this binary.
const bool kValidateInit = [] {
  ::setenv("ATACSIM_VALIDATE", "1", 1);
  return true;
}();

using mem::LineState;

MachineParams small(CoherenceKind coh = CoherenceKind::kAckwise,
                    NetworkKind net = NetworkKind::kAtacPlus) {
  auto p = MachineParams::small(8, 2);
  p.network = net;
  p.coherence = coh;
  return p;
}

/// Issues an access and returns its completion cycle after draining.
Cycle do_access(Machine& m, CoreId c, Addr a, bool write) {
  Cycle done = 0;
  m.cache(c).access(a, write, {&done, {}});
  EXPECT_TRUE(m.run(10'000'000));
  EXPECT_GT(done, 0u) << "access never completed";
  return done;
}

TEST(Protocol, ReadMissFetchesFromDramAndCaches) {
  Machine m(small());
  const Addr a = 0x100000;
  const Cycle t1 = do_access(m, 0, a, false);
  EXPECT_GT(t1, m.params().mem_latency_cycles);  // went to DRAM
  EXPECT_EQ(m.cache(0).l2().peek(a), LineState::kShared);
  EXPECT_EQ(m.mem_counters().dram_reads, 1u);
  EXPECT_TRUE(m.quiescent());

  // Second read is a local hit: fast and no extra DRAM traffic.
  Cycle done = 0;
  m.cache(0).access(a, false, {&done, {}});
  const Cycle start = m.now();
  m.run();
  EXPECT_LE(done - start, kL1HitCycles + 1);
  EXPECT_EQ(m.mem_counters().dram_reads, 1u);
}

TEST(Protocol, WriteMissTakesModifiedState) {
  Machine m(small());
  const Addr a = 0x200000;
  do_access(m, 3, a, true);
  EXPECT_EQ(m.cache(3).l2().peek(a), LineState::kModified);
  EXPECT_TRUE(m.quiescent());
}

TEST(Protocol, UpgradeFromSharedToModified) {
  Machine m(small());
  const Addr a = 0x300000;
  do_access(m, 5, a, false);
  EXPECT_EQ(m.cache(5).l2().peek(a), LineState::kShared);
  do_access(m, 5, a, true);
  EXPECT_EQ(m.cache(5).l2().peek(a), LineState::kModified);
  EXPECT_TRUE(m.quiescent());
}

TEST(Protocol, ReadAfterRemoteWriteDemotesOwner) {
  Machine m(small());
  const Addr a = 0x400000;
  do_access(m, 0, a, true);
  ASSERT_EQ(m.cache(0).l2().peek(a), LineState::kModified);
  do_access(m, 9, a, false);
  // Owner demoted M->S by the write-back request; reader has S.
  EXPECT_EQ(m.cache(0).l2().peek(a), LineState::kShared);
  EXPECT_EQ(m.cache(9).l2().peek(a), LineState::kShared);
  // The demotion wrote the dirty line back.
  EXPECT_GE(m.mem_counters().dram_writes, 1u);
  EXPECT_TRUE(m.quiescent());
}

TEST(Protocol, WriteAfterRemoteWriteFlushesOwner) {
  Machine m(small());
  const Addr a = 0x500000;
  do_access(m, 0, a, true);
  do_access(m, 9, a, true);
  EXPECT_EQ(m.cache(0).l2().peek(a), LineState::kInvalid);
  EXPECT_EQ(m.cache(9).l2().peek(a), LineState::kModified);
  EXPECT_TRUE(m.quiescent());
}

TEST(Protocol, WriterInvalidatesFewSharersViaUnicast) {
  Machine m(small());
  const Addr a = 0x600000;
  for (CoreId c : {1, 2, 3}) do_access(m, c, a, false);
  do_access(m, 7, a, true);
  for (CoreId c : {1, 2, 3})
    EXPECT_EQ(m.cache(c).l2().peek(a), LineState::kInvalid);
  EXPECT_EQ(m.cache(7).l2().peek(a), LineState::kModified);
  EXPECT_EQ(m.mem_counters().invalidations_sent, 3u);
  EXPECT_EQ(m.mem_counters().bcast_invalidations, 0u);
  EXPECT_TRUE(m.quiescent());
}

TEST(Protocol, SharerOverflowBroadcastsInvalidation) {
  auto p = small();
  p.num_hw_sharers = 4;
  Machine m(p);
  const Addr a = 0x700000;
  for (CoreId c = 0; c < 10; ++c) do_access(m, c, a, false);
  do_access(m, 20, a, true);
  for (CoreId c = 0; c < 10; ++c)
    EXPECT_EQ(m.cache(c).l2().peek(a), LineState::kInvalid) << c;
  EXPECT_EQ(m.cache(20).l2().peek(a), LineState::kModified);
  EXPECT_EQ(m.mem_counters().bcast_invalidations, 1u);
  EXPECT_TRUE(m.quiescent());
}

TEST(Protocol, DirKBBroadcastCollectsAcksFromEveryCore) {
  // Dir_kB: every core acknowledges a broadcast invalidation; ACKwise hears
  // only from actual sharers. Compare coherence traffic.
  auto pa = small(CoherenceKind::kAckwise);
  auto pd = small(CoherenceKind::kDirKB);
  pa.num_hw_sharers = pd.num_hw_sharers = 2;

  auto run = [&](MachineParams p) {
    Machine m(p);
    const Addr a = 0x800000;
    for (CoreId c = 0; c < 6; ++c) do_access(m, c, a, false);
    do_access(m, 30, a, true);
    EXPECT_TRUE(m.quiescent());
    return m.net_counters().unicast_packets;
  };
  const auto ackwise_msgs = run(pa);
  const auto dirkb_msgs = run(pd);
  // 64-core machine: Dir_kB adds ~58 extra acks.
  EXPECT_GT(dirkb_msgs, ackwise_msgs + 40);
}

TEST(Protocol, AckwiseEvictionsAreNotified) {
  auto p = small(CoherenceKind::kAckwise);
  p.l2_size_KB = 1;  // 16 lines -> heavy eviction pressure
  p.l1d_size_KB = 1;
  p.l2_assoc = 2;
  p.l1_assoc = 2;
  Machine m(p);
  // Read 64 distinct lines from one core; most get evicted clean.
  for (int i = 0; i < 64; ++i)
    do_access(m, 0, 0x900000 + static_cast<Addr>(i) * 64, false);
  EXPECT_TRUE(m.quiescent());
  // After the storm, a writer from elsewhere must not hang even though the
  // directory's sharer lists saw evictions.
  for (int i = 0; i < 64; ++i)
    do_access(m, 1, 0x900000 + static_cast<Addr>(i) * 64, true);
  EXPECT_TRUE(m.quiescent());
}

TEST(Protocol, DirtyEvictionWritesBack) {
  auto p = small();
  p.l2_size_KB = 1;
  p.l1d_size_KB = 1;
  p.l2_assoc = 2;
  p.l1_assoc = 2;
  Machine m(p);
  for (int i = 0; i < 64; ++i)
    do_access(m, 0, 0xA00000 + static_cast<Addr>(i) * 64, true);
  EXPECT_TRUE(m.quiescent());
  EXPECT_GT(m.mem_counters().dram_writes, 10u);
  // Re-reading an evicted dirty line must find the written-back data path.
  do_access(m, 2, 0xA00000, false);
  EXPECT_TRUE(m.quiescent());
}

TEST(Protocol, WaitForChangeFiresOnInvalidation) {
  Machine m(small());
  const Addr a = 0xB00000;
  do_access(m, 1, a, false);
  Cycle woke = 0;
  m.cache(1).wait_for_change(a, {&woke, {}});
  m.run();
  EXPECT_EQ(woke, 0u);  // nothing happened yet
  do_access(m, 2, a, true);  // writer invalidates core 1
  EXPECT_GT(woke, 0u);
  EXPECT_TRUE(m.quiescent());
}

TEST(Protocol, WaitForChangeFiresImmediatelyWhenAbsent) {
  Machine m(small());
  Cycle woke = 0;
  m.cache(0).wait_for_change(0xC00000, {&woke, {}});
  m.run();
  EXPECT_EQ(woke, 1u);
}

TEST(Protocol, ConcurrentWritersSerializeAtDirectory) {
  Machine m(small());
  const Addr a = 0xD00000;
  std::vector<Cycle> done(16, 0);
  for (CoreId c = 0; c < 16; ++c)
    m.cache(c).access(a, true, {&done[static_cast<std::size_t>(c)], {}});
  ASSERT_TRUE(m.run(50'000'000));
  EXPECT_EQ(std::count(done.begin(), done.end(), Cycle{0}), 0);
  EXPECT_TRUE(m.quiescent());
  // Exactly one core ends with the line; it is Modified.
  int owners = 0;
  for (CoreId c = 0; c < 16; ++c)
    if (m.cache(c).l2().peek(a) == LineState::kModified) ++owners;
  EXPECT_EQ(owners, 1);
}

class ProtocolStormTest
    : public ::testing::TestWithParam<std::tuple<CoherenceKind, NetworkKind>> {
};

TEST_P(ProtocolStormTest, RandomAccessStormQuiescesOnAllConfigs) {
  auto [coh, net] = GetParam();
  auto p = small(coh, net);
  p.num_hw_sharers = 2;
  p.l2_size_KB = 4;
  p.l1d_size_KB = 2;
  Machine m(p);
  Xoshiro256 rng(99);
  std::vector<Cycle> done(12 * 64, 0);  // one commit cycle per access
  std::size_t issued = 0;
  // Waves of random accesses over a small hot region to force every protocol
  // path: sharing, upgrades, broadcasts, evictions, crossed messages.
  for (int wave = 0; wave < 12; ++wave) {
    for (CoreId c = 0; c < 64; ++c) {
      const Addr a = 0xE00000 + rng.next_below(64) * 64;
      m.cache(c).access(a, rng.bernoulli(0.3), {&done[issued++], {}});
    }
    ASSERT_TRUE(m.run(100'000'000)) << "wave " << wave << " did not drain";
  }
  EXPECT_EQ(std::count(done.begin(), done.end(), Cycle{0}), 0);
  EXPECT_TRUE(m.quiescent());
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, ProtocolStormTest,
    ::testing::Combine(::testing::Values(CoherenceKind::kAckwise,
                                         CoherenceKind::kDirKB),
                       ::testing::Values(NetworkKind::kAtacPlus,
                                         NetworkKind::kEMeshBCast,
                                         NetworkKind::kEMeshPure)),
    [](const auto& info) {
      const NetworkKind net = std::get<1>(info.param);
      std::string n = std::get<0>(info.param) == CoherenceKind::kAckwise
                          ? "ackwise"
                          : "dirkb";
      n += net == NetworkKind::kAtacPlus
               ? "_atac"
               : (net == NetworkKind::kEMeshBCast ? "_bcast" : "_pure");
      return n;
    });

TEST(Protocol, DeterministicAcrossRuns) {
  auto run = [] {
    Machine m(small());
    Xoshiro256 rng(7);
    Cycle last_done = 0;
    for (int i = 0; i < 200; ++i) {
      const CoreId c = static_cast<CoreId>(rng.next_below(64));
      const Addr a = 0xF00000 + rng.next_below(32) * 64;
      m.cache(c).access(a, rng.bernoulli(0.5), {&last_done, {}});
    }
    m.run();
    return m.now();
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace atacsim::sim
