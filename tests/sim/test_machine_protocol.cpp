// Protocol integration tests: drive raw loads/stores through a small Machine
// and assert the MSI + ACKwise/Dir_kB behaviour the paper describes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <ostream>
#include <span>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "common/digest.hpp"
#include "common/rng.hpp"
#include "sim/address_space.hpp"
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

TEST(AddressSpace, BlocksAreAlignedZeroedAndRecordedInAllocationOrder) {
  struct alignas(64) Wide {
    std::uint64_t a;
    std::uint64_t b = 9;
  };
  AddressSpace space;
  const auto bytes = space.array<unsigned char>(3);
  const auto wide = space.array<Wide>(5);
  std::uint64_t& word = space.make<std::uint64_t>(42);
  const auto none = space.array<double>(0);

  for (unsigned char x : bytes) EXPECT_EQ(x, 0);
  for (const Wide& w : wide) {
    EXPECT_EQ(w.a, 0u);
    EXPECT_EQ(w.b, 9u);
  }
  EXPECT_EQ(word, 42u);
  EXPECT_TRUE(none.empty());
  // Malloc's 16-byte boundary, or the type's own if larger.
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(bytes.data()) % 16, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(wide.data()) % 64, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(&word) % 16, 0u);

  const auto regions = space.regions();
  ASSERT_EQ(regions.size(), 4u);
  EXPECT_EQ(regions[0].begin, reinterpret_cast<std::uintptr_t>(bytes.data()));
  EXPECT_EQ(regions[0].end - regions[0].begin, 3u);
  EXPECT_EQ(regions[1].begin, reinterpret_cast<std::uintptr_t>(wide.data()));
  EXPECT_EQ(regions[1].end - regions[1].begin, 5 * sizeof(Wide));
  EXPECT_EQ(regions[1].align, 64u);
  EXPECT_EQ(regions[2].begin, reinterpret_cast<std::uintptr_t>(&word));
  EXPECT_EQ(regions[2].align, 16u);
  EXPECT_EQ(regions[3].end, regions[3].begin);
  // Granules are numbered densely in allocation order; a partial granule
  // counts whole and an empty block takes none.
  EXPECT_EQ(regions[0].first_granule, 0u);
  EXPECT_EQ(regions[1].first_granule, 1u);
  EXPECT_EQ(regions[2].first_granule, 1u + 5 * sizeof(Wide) / 16);
  EXPECT_EQ(regions[3].first_granule, regions[2].first_granule + 1);
  EXPECT_EQ(space.granules(), regions[3].first_granule);
}

TEST(AddressSpace, ContainsExactlyTheBytesOfItsBlocks) {
  AddressSpace space;
  std::vector<std::span<std::uint64_t>> blocks;
  for (std::size_t n : {1, 7, 64, 3, 200, 2}) blocks.push_back(space.array<std::uint64_t>(n));
  const std::uint64_t host = 0;
  EXPECT_EQ(space.find(&host), nullptr);
  for (const auto& b : blocks) {
    const auto* first = reinterpret_cast<const unsigned char*>(b.data());
    const auto* end = first + b.size_bytes();
    const AddressSpace::Region* r = space.find(first);
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r->begin, reinterpret_cast<std::uintptr_t>(first));
    EXPECT_EQ(r->end, reinterpret_cast<std::uintptr_t>(end));
    EXPECT_EQ(space.find(end - 1), r);
    EXPECT_EQ(space.find(&b[b.size() / 2]), r);
    EXPECT_EQ(space.find(first - 1), nullptr);
    EXPECT_EQ(space.find(end), nullptr);
  }
  EXPECT_EQ(AddressSpace{}.find(&host), nullptr);
}

TEST(Translate, NumbersGranulesByFirstTouchPerMachine) {
  // Five 16-byte granules of one block, touched out of order.
  AddressSpace space;
  unsigned char* buf = space.array<unsigned char>(80).data();
  Machine m(small());
  m.set_address_space(&space);
  // Frames are handed out from 16 in first-touch order; a simulated
  // address is the frame times 16 plus the offset within the granule.
  EXPECT_EQ(m.translate(buf + 32), Addr{16} << 4);
  EXPECT_EQ(m.translate(buf + 0), Addr{17} << 4);
  EXPECT_EQ(m.translate(buf + 48), Addr{18} << 4);
  EXPECT_EQ(m.translate(buf + 16), Addr{19} << 4);
  // Two pointers in one granule share its frame and keep their offsets.
  EXPECT_EQ(m.translate(buf + 5), (Addr{17} << 4) + 5);
  EXPECT_EQ(m.translate(buf + 47), (Addr{16} << 4) + 15);
  // A repeated pointer maps to the same address and takes no new frame.
  EXPECT_EQ(m.translate(buf + 32), Addr{16} << 4);
  EXPECT_EQ(m.translate(buf + 16), Addr{19} << 4);
  EXPECT_EQ(m.translate(buf + 64), Addr{20} << 4);
  // Another Machine numbers the same granules by its own first touches.
  Machine other(small());
  other.set_address_space(&space);
  EXPECT_EQ(other.translate(buf + 48), Addr{16} << 4);
  EXPECT_EQ(other.translate(buf + 1), (Addr{17} << 4) + 1);
  EXPECT_EQ(m.translate(buf + 48), Addr{18} << 4);

  // Seeded differential against a first-touch map of host granules: blocks
  // of assorted sizes (several not a multiple of 16, two 64-byte aligned),
  // touched at random bytes, interleaved across blocks.
  struct alignas(64) Line {
    unsigned char b[64];
  };
  std::vector<std::span<unsigned char>> blocks;
  for (std::size_t n : {1, 13, 16, 100, 4096, 7, 33, 250})
    blocks.push_back(space.array<unsigned char>(n));
  for (std::size_t n : {3, 9}) {
    const auto lines = space.array<Line>(n);
    blocks.emplace_back(reinterpret_cast<unsigned char*>(lines.data()),
                        lines.size_bytes());
  }
  blocks.emplace_back(buf, 80);
  // A Machine that translated before the space grew numbers the new blocks
  // on from its last frame.
  EXPECT_EQ(m.translate(blocks[4].data() + 20), (Addr{21} << 4) + 4);
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Machine fresh(small());
    fresh.set_address_space(&space);
    std::unordered_map<std::uintptr_t, Addr> frames;
    Addr next = 16;
    Xoshiro256 rng(seed);
    for (int i = 0; i < 20'000; ++i) {
      const auto& b = blocks[rng.next_below(blocks.size())];
      const unsigned char* p = &b[rng.next_below(b.size())];
      const auto host = reinterpret_cast<std::uintptr_t>(p);
      const auto [it, fresh_granule] = frames.try_emplace(host >> 4, next);
      if (fresh_granule) ++next;
      ASSERT_EQ(fresh.translate(p), (it->second << 4) | (host & 15))
          << "seed " << seed << " touch " << i;
    }
  }
}

TEST(Translate, ADifferentSpaceStartsAnEmptyFrameTable) {
  AddressSpace first, second;
  const unsigned char* a = first.array<unsigned char>(32).data();
  const unsigned char* b = second.array<unsigned char>(32).data();
  Machine m(small());
  m.set_address_space(&first);
  EXPECT_EQ(m.translate(a + 16), Addr{16} << 4);
  m.set_address_space(&first);  // the same space keeps its frames
  EXPECT_EQ(m.translate(a), Addr{17} << 4);
  EXPECT_EQ(m.translate(a + 16), Addr{16} << 4);
  // Frames already handed out stay taken.
  m.set_address_space(&second);
  EXPECT_EQ(m.translate(b + 16), Addr{18} << 4);
  EXPECT_EQ(m.translate(b), Addr{19} << 4);
  m.set_address_space(&first);
  EXPECT_EQ(m.translate(a + 16), Addr{20} << 4);
}

/// Runs `m` to the end one cycle at a time and returns the most delivery
/// events it saw pending at any cycle boundary (or before the first).
std::size_t drain_tracking_pending(Machine& m) {
  std::size_t peak = m.pending_deliveries();
  for (Cycle t = m.now() + 1; !m.events().empty(); ++t) {
    m.events().run(kNeverCycle, t);
    peak = std::max(peak, m.pending_deliveries());
  }
  EXPECT_TRUE(m.run());  // drained: runs the end-of-run probes
  return peak;
}

TEST(Deliveries, PendingPastOneSlabPageArriveIntact) {
  // Dir_kB with two hardware pointers: every line read by all 64 cores is
  // tracked as global, so the first write to it broadcasts an invalidation
  // that every core acknowledges from its handler. On ATAC+ a broadcast's
  // receivers arrive a cluster at a time, in batches.
  auto p = small(CoherenceKind::kDirKB, NetworkKind::kAtacPlus);
  p.num_hw_sharers = 2;
  Machine m(p);
  constexpr int kLines = 10;
  const Addr base = 0x1200000;
  std::vector<Cycle> done(2 * kLines * 64, 0);  // one per access, issue order
  std::size_t issued = 0;
  auto issue_all = [&](bool write) {
    for (CoreId c = 0; c < 64; ++c)
      for (int i = 0; i < kLines; ++i)
        m.cache(c).access(base + Addr(i) * kLineBytes, write,
                          {&done[issued++], {}});
  };
  constexpr std::size_t kPage = Machine::kDeliveriesPerPage;
  const auto pages = [&](std::size_t pending) {
    return (pending + kPage - 1) / kPage;
  };

  // Every core reads every line: more requests pending than a page holds.
  issue_all(false);
  EXPECT_GT(m.pending_deliveries(), kPage);
  const std::size_t reads_peak = drain_tracking_pending(m);
  EXPECT_GE(pages(reads_peak), 2u);

  // Every core writes every line. Fewer requests than the slab already
  // holds are sent from here; the broadcasts, acknowledgements, flushes and
  // fills the handlers send on top take it past its pages during dispatch.
  issue_all(true);
  EXPECT_LE(m.pending_deliveries(), pages(reads_peak) * kPage);
  const std::size_t writes_peak = drain_tracking_pending(m);
  EXPECT_GT(pages(writes_peak), pages(reads_peak));

  EXPECT_EQ(std::count(done.begin(), done.end(), Cycle{0}), 0);
  EXPECT_TRUE(m.quiescent());
  EXPECT_EQ(m.pending_deliveries(), 0u);
  EXPECT_EQ(m.mem_counters().bcast_invalidations, std::uint64_t{kLines});
  for (int i = 0; i < kLines; ++i) {
    int owners = 0;
    for (CoreId c = 0; c < 64; ++c)
      owners += m.cache(c).l2().peek(base + Addr(i) * kLineBytes) ==
                LineState::kModified;
    EXPECT_EQ(owners, 1) << "line " << i;
  }
  // Pinned: the commit cycle of every access and every counter, as the
  // simulator produced them when each delivery was a closure owning its
  // message and receivers. A message or receiver lost, changed or
  // reordered in the slab moves them.
  Digest d;
  for (const Cycle t : done) d.add(t);
  d.add(m.net_counters());
  d.add(m.mem_counters());
  EXPECT_EQ(m.now(), 5102u);
  EXPECT_EQ(d.value(), 0x91811f7bc56a4d37ull);
}

/// Broadcast invalidation number 1 of `line` from slice 0's hub core.
mem::CohMsg slice0_invalidation(const MachineParams& p, Addr line) {
  mem::CohMsg msg;
  msg.line = line;
  msg.dir_slice = 0;
  msg.src = net::MeshGeom(p).hub_core(0);
  msg.dst = kBroadcastCore;
  msg.requester = msg.src;
  msg.seq = 1;
  msg.type = mem::CohType::kInvReq;
  return msg;
}

/// The arrival list Machine::send makes for the broadcast `msg` sent at
/// `t`: the same packet on a fresh copy of the network gives the same list,
/// and the sender's loopback ends it.
std::vector<net::Arrival> broadcast_arrivals(const MachineParams& p,
                                             const mem::CohMsg& msg, Cycle t) {
  std::vector<net::Arrival> arrivals;
  net::NetPacket packet;
  packet.src = msg.src;
  packet.dst = msg.dst;
  packet.cls = net::MsgClass::kCoherence;
  net::make_network(p)->inject(t, packet, arrivals);
  arrivals.push_back({msg.src, t + 2});
  return arrivals;
}

TEST(Deliveries, ReservesASlotPerRunAndSchedulesTheRunsThatAct) {
  // EMesh-BCast's tree lists its receivers by walk, not by cycle, so equal
  // cycles recur apart in the list. A broadcast reserves one event-queue
  // slot per maximal run of consecutive equal cycles and gives an event
  // only to the runs in which a receiver acts and to its last run, where it
  // retires; nothing is sorted or merged across runs. With validation on,
  // every other run gets a probe event.
  const auto p = small(CoherenceKind::kAckwise, NetworkKind::kEMeshBCast);
  const mem::CohMsg msg = slice0_invalidation(p, 0x340000);
  const Cycle t = 5;
  const std::vector<net::Arrival> arrivals = broadcast_arrivals(p, msg, t);
  ASSERT_EQ(arrivals.size(), 64u);
  std::vector<std::size_t> run_of(64);
  std::size_t runs = 0;
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    runs += i == 0 || arrivals[i].at != arrivals[i - 1].at;
    run_of[static_cast<std::size_t>(arrivals[i].receiver)] = runs - 1;
  }
  // The list is not sorted by cycle, so there are more runs than there
  // would be events with one per distinct cycle.
  std::vector<Cycle> cycles;
  for (const net::Arrival& a : arrivals) cycles.push_back(a.at);
  std::sort(cycles.begin(), cycles.end());
  cycles.erase(std::unique(cycles.begin(), cycles.end()), cycles.end());
  EXPECT_GT(runs, cycles.size());

  // Cores 3, 40 and 41 act: each has unicasts from slice 0 deferred.
  const std::vector<CoreId> actors = {3, 40, 41};
  std::vector<std::size_t> acting;
  for (const CoreId c : actors)
    acting.push_back(run_of[static_cast<std::size_t>(c)]);
  std::sort(acting.begin(), acting.end());
  acting.erase(std::unique(acting.begin(), acting.end()), acting.end());
  ASSERT_GE(acting.size(), 2u);
  // The last run holds the latest arrival, and of equal ones the one
  // listed last. It has an event whether or not a receiver in it acts.
  std::size_t latest = 0;
  for (std::size_t i = 0; i < arrivals.size(); ++i)
    if (arrivals[i].at >= arrivals[latest].at) latest = i;
  std::vector<std::size_t> scheduled = acting;
  scheduled.push_back(
      run_of[static_cast<std::size_t>(arrivals[latest].receiver)]);
  std::sort(scheduled.begin(), scheduled.end());
  scheduled.erase(std::unique(scheduled.begin(), scheduled.end()),
                  scheduled.end());

  for (const bool validate : {false, true}) {
    SCOPED_TRACE(validate);
    Machine m(p, nullptr, validate);
    for (const CoreId c : actors) m.mark_deferred(c, 0, true);
    m.send(t, msg);
    EXPECT_EQ(m.bcast_runs_reserved(), runs);
    EXPECT_EQ(m.bcast_runs_scheduled(), scheduled.size());
    EXPECT_EQ(m.pending_deliveries(), validate ? runs : scheduled.size());
    EXPECT_TRUE(m.run());
    EXPECT_EQ(m.events().dispatched(), validate ? runs : scheduled.size());
    EXPECT_EQ(m.now(), arrivals[latest].at);
    EXPECT_EQ(m.pending_deliveries(), 0u);
    EXPECT_EQ(m.bcast_late_inserts(), 0u);
    // Every receiver has processed the broadcast, whether its handler ran
    // or its number was worked out without it.
    for (CoreId c = 0; c < 64; ++c) EXPECT_EQ(m.bcast_seq(0, c), 1u) << c;
    for (const CoreId c : actors) m.mark_deferred(c, 0, false);
    EXPECT_TRUE(m.quiescent());
  }
}

// --------------------------------------------------------------- late actors

/// An access a drain issues at a chosen cycle; `done` is its commit cycle.
struct TimedAccess {
  Machine* m;
  CoreId core;
  Addr addr;
  bool write;
  Cycle done = 0;
};

void issue_timed(void* access, std::uint64_t) {
  auto& a = *static_cast<TimedAccess*>(access);
  a.m->cache(a.core).access(a.addr, a.write, {&a.done, {}});
}

/// Issues access i of `accesses` `offsets[i]` cycles from now, drains, and
/// returns a digest of the commit cycles, the network and memory counters.
std::uint64_t run_timed(Machine& m, std::vector<TimedAccess>& accesses,
                        const std::vector<Cycle>& offsets) {
  const Cycle t0 = m.now();
  for (std::size_t i = 0; i < accesses.size(); ++i)
    m.events().schedule(t0 + offsets[i], issue_timed, &accesses[i], 0);
  EXPECT_TRUE(m.run(10'000'000));
  Digest d;
  for (const TimedAccess& a : accesses) d.add(a.done);
  d.add(m.net_counters());
  d.add(m.mem_counters());
  return d.value();
}

MachineParams tiny_atac() {
  auto p = MachineParams::small(4, 2);
  p.network = NetworkKind::kAtacPlus;
  return p;
}

TEST(LateActors, MshrOpenedAfterTheBroadcastLeftGetsItsRun) {
  // Cores 0-4 share line L past the k = 4 pointers, so core 15's write
  // broadcasts the invalidation; the run of L's hub core (5), which holds
  // nothing, is the loopback two cycles after the send and has no event.
  // The hub reads L in between: add_holder gives its run an event, at the
  // slot the run reserved. Pinned: the commit cycles and every counter, as
  // the simulator gave them with one event per run.
  for (const bool validate : {true, false}) {
    SCOPED_TRACE(validate);
    Machine m(tiny_atac(), nullptr, validate);
    const Addr L = 0x40000;
    const CoreId hub = m.geom().hub_core(m.home_slice(L));
    ASSERT_EQ(hub, 5);
    for (CoreId c = 0; c <= 4; ++c) do_access(m, c, L, false);
    std::vector<TimedAccess> acc = {{&m, 15, L, true}, {&m, hub, L, false}};
    const std::uint64_t digest = run_timed(m, acc, {0, 12});
    EXPECT_EQ(m.bcast_late_inserts(), 1u);
    EXPECT_EQ(acc[0].done, 333u);
    EXPECT_EQ(acc[1].done, 367u);
    EXPECT_EQ(m.now(), 459u);
    EXPECT_EQ(digest, 0xcfa98a6b1ae97311ull);
    EXPECT_TRUE(m.quiescent());
  }
}

TEST(LateActors, UnicastDeferredBehindTheBroadcastIsReleased) {
  // Line L (slice 2, hub core 13) is shared by cores 4, 10, 6, 13 and 1;
  // core 8 owns line M of the same slice. With cluster routing, core 8's
  // read of a line of slice 1 takes its cluster's receive network just as
  // core 4's write broadcasts L's invalidation, so the broadcast reaches
  // that cluster late, in a run of its own in which no receiver acts.
  // Core 14's read of another line of slice 1, issued with core 8's, takes
  // its own cluster's receive network after that reply, so the broadcast
  // reaches cores 10-15 later still: theirs is the broadcast's last run,
  // which always has an event, and core 8's is not. Core 10's read of M
  // makes the slice send core 8 a flush request over the ENet; it overtakes
  // the broadcast and is deferred. mark_deferred gives core 8's run an
  // event, whose handler releases the request. Without it core 10's read
  // never completes. Pinned as the simulator gave it with one event per
  // run.
  for (const bool validate : {true, false}) {
    SCOPED_TRACE(validate);
    auto p = tiny_atac();
    p.routing = RoutingPolicy::kCluster;
    Machine m(p, nullptr, validate);
    const Addr L = 0x40080, M = 0x80080, other = 0xc0040, other2 = 0xc0140;
    ASSERT_EQ(m.home_slice(L), 2);
    ASSERT_EQ(m.home_slice(M), 2);
    ASSERT_EQ(m.home_slice(other), 1);
    ASSERT_EQ(m.home_slice(other2), 1);
    for (const CoreId c : {4, 10, 6, 13, 1}) do_access(m, c, L, false);
    do_access(m, 8, M, true);
    do_access(m, 4, other, false);
    do_access(m, 4, other2, false);
    std::vector<TimedAccess> acc = {{&m, 4, L, true},
                                    {&m, 10, M, false},
                                    {&m, 8, other, false},
                                    {&m, 14, other2, false}};
    const std::uint64_t digest = run_timed(m, acc, {8, 10, 4, 4});
    EXPECT_EQ(m.bcast_late_inserts(), 1u);
    EXPECT_EQ(acc[0].done, 812u);
    EXPECT_EQ(acc[1].done, 802u);
    EXPECT_EQ(acc[2].done, 768u);
    EXPECT_EQ(acc[3].done, 778u);
    EXPECT_EQ(m.now(), 890u);
    EXPECT_EQ(digest, 0xcc403c5941e749e9ull);
    EXPECT_TRUE(m.quiescent());
  }
}

// --------------------------------------------------------------- cycle limit

TEST(CycleLimit, StopInsideABroadcastResumesAsIfUninterrupted) {
  // An ACKwise invalidation that no receiver acts on has an event only at
  // its last run. A cycle limit between its first and last arrival stops
  // the clock at the limit, where a read sees the runs at or before it as
  // passed; a second run() then ends as a run without the limit does.
  const auto p = tiny_atac();
  const mem::CohMsg msg = slice0_invalidation(p, 0x40000);
  const Cycle t = 5;
  const std::vector<net::Arrival> arrivals = broadcast_arrivals(p, msg, t);
  Cycle first = kNeverCycle, last = 0;
  for (const net::Arrival& a : arrivals) {
    first = std::min(first, a.at);
    last = std::max(last, a.at);
  }
  const Cycle stop = first + (last - first) / 2;
  ASSERT_LT(first, stop);
  ASSERT_LT(stop, last);

  for (const bool validate : {false, true}) {
    SCOPED_TRACE(validate);
    Machine whole(p, nullptr, validate);
    whole.send(t, msg);
    EXPECT_TRUE(whole.run());

    Machine m(p, nullptr, validate);
    m.send(t, msg);
    EXPECT_FALSE(m.run(stop));
    EXPECT_EQ(m.now(), stop);
    for (const net::Arrival& a : arrivals)
      EXPECT_EQ(m.bcast_seq(0, a.receiver), a.at <= stop ? 1u : 0u)
          << a.receiver;
    EXPECT_TRUE(m.run());

    EXPECT_EQ(m.now(), last);
    EXPECT_EQ(m.now(), whole.now());
    EXPECT_EQ(m.events().dispatched(), whole.events().dispatched());
    EXPECT_EQ(m.bcast_runs_reserved(), whole.bcast_runs_reserved());
    EXPECT_EQ(m.bcast_runs_scheduled(), whole.bcast_runs_scheduled());
    EXPECT_EQ(m.bcast_late_inserts(), whole.bcast_late_inserts());
    Digest a, b;
    a.add(m.net_counters());
    a.add(m.mem_counters());
    b.add(whole.net_counters());
    b.add(whole.mem_counters());
    EXPECT_EQ(a.value(), b.value());
    for (HubId s = 0; s < m.geom().num_clusters(); ++s)
      for (CoreId c = 0; c < p.num_cores; ++c)
        EXPECT_EQ(m.bcast_seq(s, c), whole.bcast_seq(s, c)) << s << " " << c;
    for (CoreId c = 0; c < p.num_cores; ++c)
      EXPECT_EQ(m.bcast_seq(0, c), 1u) << c;
    EXPECT_EQ(m.pending_deliveries(), 0u);
    EXPECT_TRUE(m.quiescent());
  }
}

TEST(CycleLimit, ReadAfterAStopSeesTheRunAtTheLimitAsPassed) {
  // The loopback of an ACKwise invalidation from slice 0 sent at cycle 5
  // reaches slice 0's hub core, which holds nothing, at cycle 7, before
  // the broadcast's last run. run(7) stops with every slot at or before 7
  // passed, so a read after the stop sees the hub's number advanced: with
  // validation on, where the run's probe event advanced the eager mirror
  // and a lazy read that disagrees raises, and off, where the run has no
  // event.
  const auto p = tiny_atac();
  const mem::CohMsg msg = slice0_invalidation(p, 0x40000);
  for (const bool validate : {true, false}) {
    SCOPED_TRACE(validate);
    Machine m(p, nullptr, validate);
    const CoreId hub = m.geom().hub_core(0);
    m.send(5, msg);
    EXPECT_FALSE(m.run(7));
    EXPECT_EQ(m.now(), 7u);
    EXPECT_EQ(m.bcast_seq(0, hub), 1u);
    EXPECT_EQ(m.events().dispatched(), validate ? 1u : 0u);
    EXPECT_TRUE(m.run());
    EXPECT_EQ(m.bcast_seq(0, hub), 1u);
    EXPECT_TRUE(m.quiescent());
  }
}

}  // namespace
}  // namespace atacsim::sim
