// Edge-position and boundary-condition tests for the network models.
#include <gtest/gtest.h>

#include <map>

#include "arrivals.hpp"
#include "network/atac_model.hpp"
#include "network/emesh_model.hpp"

namespace atacsim::net {
namespace {

MachineParams small() { return MachineParams::small(8, 2); }

class BcastSource : public ::testing::TestWithParam<CoreId> {};

TEST_P(BcastSource, TreeCoversMeshFromAnySourcePosition) {
  // Corners, edges and centre: the XY multicast tree must always deliver to
  // exactly the 63 other cores over exactly 63 tree links.
  EMeshModel m(small(), /*hw_broadcast=*/true);
  std::map<CoreId, int> hits;
  NetPacket p{.src = GetParam(), .dst = kBroadcastCore, .bits = 64,
              .cls = MsgClass::kSynthetic};
  for (const Arrival& a : arrivals_of(m, 0, p)) ++hits[a.receiver];
  EXPECT_EQ(hits.size(), 63u);
  EXPECT_EQ(hits.count(GetParam()), 0u);
  EXPECT_EQ(m.counters().enet_link_flits, 63u);
}

INSTANTIATE_TEST_SUITE_P(Positions, BcastSource,
                         ::testing::Values<CoreId>(0, 7, 56, 63,  // corners
                                                   3, 24, 39, 60, // edges
                                                   27));          // centre

TEST(AtacEdges, HubCoreSendsAndReceivesOverOnet) {
  auto mp = small();
  mp.network = NetworkKind::kAtacPlus;
  mp.routing = RoutingPolicy::kCluster;
  AtacModel m(mp);
  const MeshGeom& g = m.geom();
  // Hub tile to hub tile of a distant cluster: no ENet legs at all.
  NetPacket p{.src = g.hub_core(0), .dst = g.hub_core(15), .bits = 64,
              .cls = MsgClass::kSynthetic};
  const auto out = arrivals_of(m, 0, p);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].receiver, g.hub_core(15));
  EXPECT_GT(out[0].at, 0u);
  EXPECT_EQ(m.counters().enet_link_flits, 0u);
  EXPECT_EQ(m.counters().onet_flits_sent, 1u);
}

TEST(AtacEdges, SelfAddressedUnicastStaysLocal) {
  auto mp = small();
  mp.network = NetworkKind::kAtacPlus;
  AtacModel m(mp);
  NetPacket p{.src = 5, .dst = 5, .bits = 64, .cls = MsgClass::kSynthetic};
  const auto out = arrivals_of(m, 0, p);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].receiver, 5);
  // Ejection only: cheap, never the ONet.
  EXPECT_LT(out[0].at, 10u);
  EXPECT_EQ(m.counters().onet_flits_sent, 0u);
}

TEST(AtacEdges, DistanceThresholdBoundaryIsInclusive) {
  // Paper Sec. IV-C: "At r_thres or above it, a unicast packet is sent over
  // the ONet."
  auto mp = small();
  mp.network = NetworkKind::kAtacPlus;
  mp.routing = RoutingPolicy::kDistance;
  mp.r_thres = 5;
  AtacModel m(mp);
  const MeshGeom& g = m.geom();
  const CoreId src = g.core_at(0, 0);
  EXPECT_FALSE(m.unicast_uses_onet(src, g.core_at(4, 0)));  // distance 4
  EXPECT_TRUE(m.unicast_uses_onet(src, g.core_at(5, 0)));   // distance 5
  EXPECT_TRUE(m.unicast_uses_onet(src, g.core_at(6, 0)));
}

TEST(EMeshEdges, AdjacentCornerHopCount) {
  EMeshModel m(small(), false);
  NetPacket p{.src = 63, .dst = 62, .bits = 64, .cls = MsgClass::kSynthetic};
  arrivals_of(m, 0, p);
  EXPECT_EQ(m.counters().enet_link_flits, 1u);  // exactly one hop
}

TEST(EMeshEdges, MaxDiagonalUsesManhattanHops) {
  EMeshModel m(small(), false);
  NetPacket p{.src = 0, .dst = 63, .bits = 64, .cls = MsgClass::kSynthetic};
  arrivals_of(m, 0, p);
  EXPECT_EQ(m.counters().enet_link_flits, 14u);  // 7 + 7
}

}  // namespace
}  // namespace atacsim::net
