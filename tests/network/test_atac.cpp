#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "arrivals.hpp"
#include "common/rng.hpp"
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

/// Reference model: ATAC+ as it was with one ledger group per cluster. Each
/// hub data link and each StarNet keeps its own horizon and busy count; a
/// cluster's group picks its StarNet by `src % k`. The ENet leg is the
/// EMeshModel, which MatchesNodeMajorLinkReference checks on its own.
class PerClusterAtac : public NetworkModel {
 public:
  explicit PerClusterAtac(const MachineParams& mp)
      : mp_(mp),
        geom_(mp),
        enet_(mp, /*hw_broadcast=*/false, &counters_),
        hub_(static_cast<std::size_t>(geom_.num_clusters())),
        starnets_(static_cast<std::size_t>(geom_.num_clusters()),
                  std::vector<Channel>(static_cast<std::size_t>(
                      mp.starnets_per_cluster))) {}

  Cycle inject(Cycle t, const NetPacket& p,
               std::vector<Arrival>& out) override {
    const int flits = enet_.flits_of(p);
    if (p.is_broadcast()) {
      const auto [free, head] = onet_leg(t, p.src, flits);
      counters_.onet_flit_receptions +=
          static_cast<std::uint64_t>(flits) * (geom_.num_clusters() - 1);
      counters_.laser_bcast_cycles += flits;
      const int cw = mp_.cluster_width;
      Cycle last = head;
      for (HubId h = 0; h < geom_.num_clusters(); ++h) {
        const Cycle tail = receive_leg(h, head, flits, p.src, true);
        last = std::max(last, tail);
        for (int yy = geom_.cluster_y(h) * cw;
             yy < (geom_.cluster_y(h) + 1) * cw; ++yy)
          for (int xx = geom_.cluster_x(h) * cw;
               xx < (geom_.cluster_x(h) + 1) * cw; ++xx) {
            const CoreId c = geom_.core_at(xx, yy);
            if (c != p.src) out.push_back({c, tail});
          }
      }
      count_broadcast(t, last, flits, static_cast<std::uint64_t>(flits),
                      geom_.num_cores() - 1, p.cls);
      return free;
    }
    const bool onet =
        !geom_.same_cluster(p.src, p.dst) &&
        (mp_.routing == RoutingPolicy::kCluster ||
         (mp_.routing == RoutingPolicy::kDistance &&
          geom_.manhattan(p.src, p.dst) >= mp_.r_thres));
    if (!onet) {
      const auto leg = enet_.unicast_leg(t, p.src, p.dst, flits);
      out.push_back({p.dst, leg.tail});
      count_unicast(t, leg.tail, flits, p.cls);
      return leg.sender_free;
    }
    const Cycle head = onet_leg(t, p.src, flits).second;
    counters_.onet_flit_receptions += flits;
    counters_.laser_unicast_cycles += flits;
    const Cycle tail =
        receive_leg(geom_.cluster_of(p.dst), head, flits, p.src, false);
    out.push_back({p.dst, tail});
    count_unicast(t, tail, flits, p.cls);
    return t + flits;
  }

  void append_channel_usage(std::vector<ChannelUsage>& out) const override {
    enet_.append_channel_usage(out);
    out.push_back({"onet.hub_data", hub_busy(), hub_.size()});
    Cycle busy = 0;
    std::size_t channels = 0;
    for (const auto& group : starnets_)
      for (const Channel& c : group) {
        busy += c.busy_cycles;
        ++channels;
      }
    out.push_back({"recvnet.starnets", busy, channels});
  }

  double link_utilization(Cycle total_cycles) const {
    if (total_cycles == 0) return 0.0;
    return static_cast<double>(hub_busy()) /
           (static_cast<double>(total_cycles) * hub_.size());
  }

 private:
  struct Channel {
    Cycle busy_until = 0;
    Cycle busy_cycles = 0;
    Cycle acquire(Cycle ready, Cycle duration) {
      const Cycle start = std::max(ready, busy_until);
      busy_until = start + duration;
      busy_cycles += duration;
      return start;
    }
  };

  Cycle hub_busy() const {
    Cycle busy = 0;
    for (const Channel& c : hub_) busy += c.busy_cycles;
    return busy;
  }

  /// Sender-free cycle and head arrival at the receiving hubs.
  std::pair<Cycle, Cycle> onet_leg(Cycle t, CoreId src, int flits) {
    const HubId sh = geom_.cluster_of(src);
    const CoreId hub_core = geom_.hub_core(sh);
    Cycle head = t;
    Cycle free = t + static_cast<Cycle>(flits);
    if (src != hub_core) {
      const auto leg = enet_.unicast_leg(t, src, hub_core, flits);
      free = leg.sender_free;
      head = leg.tail - (flits - 1);
    }
    const Cycle start = hub_[static_cast<std::size_t>(sh)].acquire(
        head + kRouterDelay + mp_.onet_select_data_lag,
        static_cast<Cycle>(flits));
    counters_.hub_flits += flits;
    ++counters_.onet_selects;
    counters_.onet_flits_sent += flits;
    return {free, start + mp_.onet_link_delay};
  }

  Cycle receive_leg(HubId cluster, Cycle head, int flits, CoreId src,
                    bool bcast) {
    auto& group = starnets_[static_cast<std::size_t>(cluster)];
    const Cycle start =
        group[static_cast<std::size_t>(src) % group.size()].acquire(
            head, static_cast<Cycle>(flits));
    const int links = (mp_.receive_net == ReceiveNet::kBNet)
                          ? mp_.cores_per_cluster() / 2
                          : (bcast ? mp_.cores_per_cluster() : 1);
    counters_.recvnet_link_flits += static_cast<std::uint64_t>(flits) * links;
    counters_.hub_flits += flits;
    return start + kStarnetLinkDelay + flits - 1;
  }

  MachineParams mp_;
  MeshGeom geom_;
  EMeshModel enet_;
  std::vector<Channel> hub_;
  std::vector<std::vector<Channel>> starnets_;
};

// Drives AtacModel and the per-cluster reference with the same seeded
// packets (unicasts of every class and one broadcast in 12, a few cycles
// apart so that hub links and StarNets contend) on 8x2 and 16x4, with two
// and three StarNets per cluster, under Cluster and Distance routing and
// both receive nets. After every packet it compares every arrival, the
// sender-free cycle, every counter, the channel usage and the SWMR link
// utilization.
TEST(Atac, MatchesPerClusterLedgerReference) {
  constexpr MsgClass kClasses[] = {MsgClass::kCoherence, MsgClass::kData,
                                   MsgClass::kSynthetic};
  struct Mesh {
    int width, cluster_width, packets;
  };
  for (const Mesh mesh : {Mesh{8, 2, 3000}, Mesh{16, 4, 1500}})
    for (const int k : {2, 3})
      for (const RoutingPolicy pol :
           {RoutingPolicy::kCluster, RoutingPolicy::kDistance})
        for (const ReceiveNet recv : {ReceiveNet::kStarNet, ReceiveNet::kBNet}) {
          SCOPED_TRACE(testing::Message()
                       << mesh.width << "x" << mesh.cluster_width << ", k=" << k
                       << ", routing " << static_cast<int>(pol)
                       << ", receive net " << static_cast<int>(recv));
          auto mp = MachineParams::small(mesh.width, mesh.cluster_width);
          mp.network = NetworkKind::kAtacPlus;
          mp.starnets_per_cluster = k;
          mp.routing = pol;
          mp.r_thres = 4;
          mp.receive_net = recv;
          AtacModel m(mp);
          PerClusterAtac ref(mp);
          Xoshiro256 rng(static_cast<std::uint64_t>(mesh.width * 8 + k * 2) +
                         (pol == RoutingPolicy::kCluster));
          const auto cores = static_cast<std::uint64_t>(mp.num_cores);
          Cycle t = 0;
          std::vector<Arrival> got, want;
          std::vector<ChannelUsage> got_use, want_use;
          for (int i = 0; i < mesh.packets; ++i) {
            t += rng.next_below(3);
            NetPacket p;
            p.src = static_cast<CoreId>(rng.next_below(cores));
            p.dst = rng.next_below(12) == 0
                        ? kBroadcastCore
                        : static_cast<CoreId>(rng.next_below(cores));
            if (p.dst == p.src) p.dst = (p.src + 1) % mp.num_cores;
            p.cls = kClasses[rng.next_below(3)];
            p.bits = 1 + static_cast<int>(rng.next_below(700));
            got.clear();
            want.clear();
            ASSERT_EQ(m.inject(t, p, got), ref.inject(t, p, want))
                << "packet " << i;
            ASSERT_EQ(got.size(), want.size()) << "packet " << i;
            for (std::size_t j = 0; j < got.size(); ++j) {
              ASSERT_EQ(got[j].receiver, want[j].receiver) << "packet " << i;
              ASSERT_EQ(got[j].at, want[j].at) << "packet " << i;
            }
            for_each_counter(
                [&](const char* name, std::uint64_t a, std::uint64_t b) {
                  EXPECT_EQ(a, b) << name << ", packet " << i;
                },
                m.counters(), ref.counters());
            got_use.clear();
            want_use.clear();
            m.append_channel_usage(got_use);
            ref.append_channel_usage(want_use);
            ASSERT_EQ(got_use.size(), 3u);
            ASSERT_EQ(want_use.size(), 3u);
            for (std::size_t j = 0; j < got_use.size(); ++j) {
              ASSERT_EQ(std::string(got_use[j].name), want_use[j].name);
              ASSERT_EQ(got_use[j].busy_cycles, want_use[j].busy_cycles)
                  << got_use[j].name << ", packet " << i;
              ASSERT_EQ(got_use[j].channels, want_use[j].channels);
            }
            ASSERT_EQ(m.link_utilization(t + 1), ref.link_utilization(t + 1))
                << "packet " << i;
            if (HasFailure()) return;
          }
        }
}

}  // namespace
}  // namespace atacsim::net
