#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "arrivals.hpp"
#include "network/emesh_model.hpp"

namespace atacsim::net {
namespace {

MachineParams small() { return MachineParams::small(8, 2); }

TEST(EMesh, ZeroLoadUnicastLatencyIsHopDelays) {
  EMeshModel m(small(), false);
  // (0,0) -> (3,0): 3 hops + ejection; router 1 + link 1 per hop.
  NetPacket p{.src = 0, .dst = 3, .bits = 64, .cls = MsgClass::kSynthetic};
  const auto out = arrivals_of(m, 0, p);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].receiver, 3);
  // 3 link hops (2 cycles each) + ejection (2 cycles) = 8, 1 flit.
  EXPECT_EQ(out[0].at, 8u);
}

TEST(EMesh, LatencyGrowsWithDistance) {
  EMeshModel m(small(), false);
  auto lat = [&](CoreId dst) {
    NetPacket p{.src = 0, .dst = dst, .bits = 64, .cls = MsgClass::kSynthetic};
    return latest(arrivals_of(m, 0, p));
  };
  EXPECT_LT(lat(1), lat(7));
  EXPECT_LT(lat(7), lat(63));
}

TEST(EMesh, MultiFlitPacketsSerialize) {
  EMeshModel m(small(), false);
  NetPacket p1{.src = 0, .dst = 1, .bits = 64, .cls = MsgClass::kSynthetic};
  NetPacket p10{.src = 8, .dst = 9, .bits = 640, .cls = MsgClass::kSynthetic};
  const Cycle a1 = latest(arrivals_of(m, 0, p1));
  const Cycle a10 = latest(arrivals_of(m, 0, p10));
  EXPECT_EQ(a10, a1 + 9);  // same path shape, 9 extra tail flits
}

TEST(EMesh, CoherenceAndDataClassesSetSize) {
  const auto mp = small();
  EMeshModel m(mp, false);
  NetPacket c{.src = 0, .dst = 1, .bits = 0, .cls = MsgClass::kCoherence};
  NetPacket d{.src = 0, .dst = 1, .bits = 0, .cls = MsgClass::kData};
  EXPECT_EQ(m.flits_of(c), 2);
  EXPECT_EQ(m.flits_of(d), 10);
}

TEST(EMesh, ContentionDelaysSecondPacket) {
  EMeshModel m(small(), false);
  NetPacket p{.src = 0, .dst = 7, .bits = 640, .cls = MsgClass::kSynthetic};
  const Cycle a = latest(arrivals_of(m, 0, p));
  NetPacket q{.src = 0, .dst = 7, .bits = 640, .cls = MsgClass::kSynthetic};
  const Cycle b = latest(arrivals_of(m, 0, q));
  EXPECT_GE(b, a + 10);  // serialized behind the first 10-flit packet
}

TEST(EMesh, SenderFreeReflectsInjectionSerialization) {
  EMeshModel m(small(), false);
  NetPacket p{.src = 0, .dst = 7, .bits = 640, .cls = MsgClass::kSynthetic};
  std::vector<Arrival> out;
  const Cycle free = m.inject(5, p, out);
  EXPECT_EQ(free, 15u);  // 10 flits through the NIC starting at t=5
}

TEST(EMeshBCast, TreeDeliversToAllOthersExactlyOnce) {
  EMeshModel m(small(), true);
  std::map<CoreId, int> hits;
  NetPacket p{.src = 20, .dst = kBroadcastCore, .bits = 64,
              .cls = MsgClass::kSynthetic};
  for (const Arrival& a : arrivals_of(m, 0, p)) ++hits[a.receiver];
  EXPECT_EQ(hits.size(), 63u);
  EXPECT_EQ(hits.count(20), 0u);
  for (const auto& [core, n] : hits) {
    (void)core;
    EXPECT_EQ(n, 1);
  }
}

TEST(EMeshPure, BroadcastSerializesUnicasts) {
  EMeshModel pure(small(), false);
  EMeshModel bc(small(), true);
  NetPacket p{.src = 0, .dst = kBroadcastCore, .bits = 64,
              .cls = MsgClass::kSynthetic};
  const auto out_pure = arrivals_of(pure, 0, p);
  const auto out_bc = arrivals_of(bc, 0, p);
  EXPECT_EQ(out_pure.size(), 63u);
  EXPECT_EQ(out_bc.size(), 63u);
  const Cycle last_pure = latest(out_pure);
  const Cycle last_bc = latest(out_bc);
  // Serialized unicasts take far longer than the hardware multicast tree.
  EXPECT_GT(last_pure, 3 * last_bc);
}

TEST(EMeshBCast, TreeUsesFarFewerFlitHopsThanSerializedUnicasts) {
  EMeshModel pure(small(), false);
  EMeshModel bc(small(), true);
  NetPacket p{.src = 27, .dst = kBroadcastCore, .bits = 64,
              .cls = MsgClass::kSynthetic};
  arrivals_of(pure, 0, p);
  arrivals_of(bc, 0, p);
  EXPECT_GT(pure.counters().enet_link_flits,
            3 * bc.counters().enet_link_flits);
  // The multicast tree touches each of the 63 links of an 8x8 spanning tree.
  EXPECT_EQ(bc.counters().enet_link_flits, 63u);
}

TEST(EMesh, CountersTrackTraffic) {
  EMeshModel m(small(), true);
  NetPacket u{.src = 0, .dst = 9, .bits = 64, .cls = MsgClass::kSynthetic};
  NetPacket b{.src = 0, .dst = kBroadcastCore, .bits = 64,
              .cls = MsgClass::kSynthetic};
  arrivals_of(m, 0, u);
  arrivals_of(m, 0, b);
  EXPECT_EQ(m.counters().unicast_packets, 1u);
  EXPECT_EQ(m.counters().bcast_packets, 1u);
  EXPECT_EQ(m.counters().recv_unicast_flits, 1u);
  EXPECT_EQ(m.counters().recv_bcast_flits, 63u);
  EXPECT_EQ(m.counters().packet_latency.n, 2u);
}

}  // namespace
}  // namespace atacsim::net
