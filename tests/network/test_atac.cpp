#include <gtest/gtest.h>

#include <map>

#include "arrivals.hpp"
#include "network/atac_model.hpp"

namespace atacsim::net {
namespace {

MachineParams small_atac(RoutingPolicy pol = RoutingPolicy::kDistance,
                         int r_thres = 4) {
  auto p = MachineParams::small(8, 2);
  p.network = NetworkKind::kAtacPlus;
  p.routing = pol;
  p.r_thres = r_thres;
  return p;
}

TEST(Atac, RoutingPolicySelectsOnet) {
  const AtacModel cluster(small_atac(RoutingPolicy::kCluster));
  const AtacModel dist(small_atac(RoutingPolicy::kDistance, 4));
  const AtacModel all(small_atac(RoutingPolicy::kDistanceAll));
  const MeshGeom g(small_atac());

  const CoreId a = g.core_at(0, 0);
  const CoreId same_cluster = g.core_at(1, 1);
  const CoreId near_other = g.core_at(2, 0);  // distance 2, other cluster
  const CoreId far = g.core_at(7, 7);         // distance 14

  // Intra-cluster is always ENet.
  EXPECT_FALSE(cluster.unicast_uses_onet(a, same_cluster));
  EXPECT_FALSE(dist.unicast_uses_onet(a, same_cluster));
  // Cluster policy: any inter-cluster unicast rides the ONet.
  EXPECT_TRUE(cluster.unicast_uses_onet(a, near_other));
  EXPECT_TRUE(cluster.unicast_uses_onet(a, far));
  // Distance-4: short hops stay electrical.
  EXPECT_FALSE(dist.unicast_uses_onet(a, near_other));
  EXPECT_TRUE(dist.unicast_uses_onet(a, far));
  // Distance-All: never.
  EXPECT_FALSE(all.unicast_uses_onet(a, far));
}

TEST(Atac, OnetUnicastDeliversToExactlyOneCore) {
  AtacModel m(small_atac(RoutingPolicy::kCluster));
  const MeshGeom& g = m.geom();
  std::map<CoreId, int> hits;
  NetPacket p{.src = g.core_at(0, 0), .dst = g.core_at(7, 7), .bits = 64,
              .cls = MsgClass::kSynthetic};
  for (const Arrival& a : arrivals_of(m, 0, p)) ++hits[a.receiver];
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits.begin()->first, g.core_at(7, 7));
  EXPECT_EQ(m.counters().onet_selects, 1u);
  EXPECT_EQ(m.onet_unicast_packets(), 1u);
  EXPECT_EQ(m.counters().laser_unicast_cycles, 1u);  // 1 flit
  EXPECT_EQ(m.counters().laser_bcast_cycles, 0u);
}

TEST(Atac, BroadcastReachesAllOtherCores) {
  AtacModel m(small_atac());
  std::map<CoreId, int> hits;
  NetPacket p{.src = 5, .dst = kBroadcastCore, .bits = 64,
              .cls = MsgClass::kSynthetic};
  for (const Arrival& a : arrivals_of(m, 0, p)) ++hits[a.receiver];
  EXPECT_EQ(hits.size(), 63u);
  EXPECT_EQ(hits.count(5), 0u);
  for (auto& [c, n] : hits) {
    (void)c;
    EXPECT_EQ(n, 1);
  }
  EXPECT_EQ(m.counters().laser_bcast_cycles, 1u);
  EXPECT_EQ(m.onet_bcast_packets(), 1u);
}

TEST(Atac, OnetBeatsEnetForLongDistancesAtZeroLoad) {
  // Zero-load: ONet path latency is roughly constant, ENet grows per hop.
  AtacModel onet(small_atac(RoutingPolicy::kCluster));
  AtacModel enet(small_atac(RoutingPolicy::kDistanceAll));
  const MeshGeom& g = onet.geom();
  NetPacket p{.src = g.core_at(0, 0), .dst = g.core_at(7, 7), .bits = 64,
              .cls = MsgClass::kSynthetic};
  const Cycle to = latest(arrivals_of(onet, 0, p));
  const Cycle te = latest(arrivals_of(enet, 0, p));
  EXPECT_LT(to, te);
}

TEST(Atac, EnetBeatsOnetForNeighbors) {
  AtacModel onet(small_atac(RoutingPolicy::kCluster));
  AtacModel enet(small_atac(RoutingPolicy::kDistanceAll));
  const MeshGeom& g = onet.geom();
  NetPacket p{.src = g.core_at(1, 0), .dst = g.core_at(2, 0), .bits = 64,
              .cls = MsgClass::kSynthetic};
  const Cycle to = latest(arrivals_of(onet, 0, p));
  const Cycle te = latest(arrivals_of(enet, 0, p));
  EXPECT_LT(te, to);
}

TEST(Atac, SelectLagDelaysData) {
  auto p0 = small_atac(RoutingPolicy::kCluster);
  auto p4 = p0;
  p4.onet_select_data_lag = 4;
  AtacModel m0(p0), m4(p4);
  const MeshGeom& g = m0.geom();
  NetPacket p{.src = g.core_at(0, 0), .dst = g.core_at(7, 7), .bits = 64,
              .cls = MsgClass::kSynthetic};
  const Cycle t0 = latest(arrivals_of(m0, 0, p));
  const Cycle t4 = latest(arrivals_of(m4, 0, p));
  EXPECT_EQ(t4, t0 + 3);  // lag 1 -> 4
}

TEST(Atac, HubChannelSerializesSendersTraffic) {
  AtacModel m(small_atac(RoutingPolicy::kCluster));
  const MeshGeom& g = m.geom();
  const CoreId src = g.hub_core(0);
  NetPacket p{.src = src, .dst = g.core_at(7, 7), .bits = 640,
              .cls = MsgClass::kSynthetic};
  const Cycle a = latest(arrivals_of(m, 0, p));
  const Cycle b = latest(arrivals_of(m, 0, p));
  EXPECT_GE(b, a + 10);
}

TEST(Atac, BnetTogglesMoreReceiveLinksThanStarnetForUnicast) {
  auto ps = small_atac(RoutingPolicy::kCluster);
  auto pb = ps;
  pb.receive_net = ReceiveNet::kBNet;
  AtacModel star(ps), bnet(pb);
  const MeshGeom& g = star.geom();
  NetPacket p{.src = g.core_at(0, 0), .dst = g.core_at(7, 7), .bits = 64,
              .cls = MsgClass::kSynthetic};
  arrivals_of(star, 0, p);
  arrivals_of(bnet, 0, p);
  EXPECT_GT(bnet.counters().recvnet_link_flits,
            star.counters().recvnet_link_flits);
}

TEST(Atac, StarnetBroadcastCostsTwiceBnet) {
  // Paper Sec. IV-B: StarNet broadcast energy is ~2x BNet broadcast.
  auto ps = MachineParams::paper();
  ps.network = NetworkKind::kAtacPlus;
  auto pb = ps;
  pb.receive_net = ReceiveNet::kBNet;
  AtacModel star(ps), bnet(pb);
  NetPacket p{.src = 0, .dst = kBroadcastCore, .bits = 64,
              .cls = MsgClass::kSynthetic};
  arrivals_of(star, 0, p);
  arrivals_of(bnet, 0, p);
  EXPECT_EQ(star.counters().recvnet_link_flits,
            2 * bnet.counters().recvnet_link_flits);
}

TEST(Atac, LinkUtilizationTracksBusyCycles) {
  AtacModel m(small_atac(RoutingPolicy::kCluster));
  const MeshGeom& g = m.geom();
  NetPacket p{.src = g.core_at(0, 0), .dst = g.core_at(7, 7), .bits = 640,
              .cls = MsgClass::kSynthetic};
  arrivals_of(m, 0, p);
  // 10 flits on one of 16 hubs over 100 cycles.
  EXPECT_NEAR(m.link_utilization(100), 10.0 / (100.0 * 16), 1e-9);
}

TEST(Atac, IntraClusterTrafficNeverTouchesOnet) {
  AtacModel m(small_atac(RoutingPolicy::kCluster));
  const MeshGeom& g = m.geom();
  NetPacket p{.src = g.core_at(0, 0), .dst = g.core_at(1, 1), .bits = 64,
              .cls = MsgClass::kSynthetic};
  arrivals_of(m, 0, p);
  EXPECT_EQ(m.counters().onet_flits_sent, 0u);
  EXPECT_GT(m.counters().enet_link_flits, 0u);
}

}  // namespace
}  // namespace atacsim::net
