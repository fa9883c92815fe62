#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "arrivals.hpp"
#include "common/rng.hpp"
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

/// Reference model: the mesh as it was with node-major link ids,
/// `node * kPorts + port`, one route step per hop, and a ledger of its own
/// per link that counts that link's busy cycles. Every reservation, arrival
/// and counter of EMeshModel must match it.
class NodeMajorEMesh : public NetworkModel {
 public:
  NodeMajorEMesh(const MachineParams& mp, bool hw_broadcast)
      : mp_(mp),
        geom_(mp),
        links_(static_cast<std::size_t>(geom_.num_cores()) * kPorts),
        hw_broadcast_(hw_broadcast) {}

  Cycle inject(Cycle t, const NetPacket& p,
               std::vector<Arrival>& out) override {
    const int flits = flits_of(p);
    if (!p.is_broadcast()) {
      const auto [free, tail] = unicast_leg(t, p.src, p.dst, flits);
      out.push_back({p.dst, tail});
      count_unicast(t, tail, flits, p.cls);
      return free;
    }
    if (hw_broadcast_) return bcast_tree(t, p.src, flits, p.cls, out);
    Cycle sender_free = t;
    Cycle last = t;
    for (CoreId dst = 0; dst < geom_.num_cores(); ++dst) {
      if (dst == p.src) continue;
      const auto [free, tail] = unicast_leg(sender_free, p.src, dst, flits);
      out.push_back({dst, tail});
      last = std::max(last, tail);
      sender_free = free;
    }
    count_broadcast(t, last, flits,
                    static_cast<std::uint64_t>(flits) *
                        (geom_.num_cores() - 1),
                    geom_.num_cores() - 1, p.cls);
    return sender_free;
  }

  void append_channel_usage(std::vector<ChannelUsage>& out) const override {
    Cycle busy = 0;
    for (const Link& l : links_) busy += l.busy_cycles;
    out.push_back({"enet.links", busy, links_.size()});
  }

 private:
  enum Port { kE = 0, kW, kS, kN, kInject, kEject, kPorts };

  struct Link {
    Cycle busy_until = 0;
    Cycle busy_cycles = 0;
    Cycle acquire(Cycle ready, Cycle duration) {
      const Cycle start = std::max(ready, busy_until);
      busy_until = start + duration;
      busy_cycles += duration;
      return start;
    }
  };

  int flits_of(const NetPacket& p) const {
    int bits = p.bits;
    if (p.cls == MsgClass::kCoherence) bits = kCoherenceMsgBits;
    if (p.cls == MsgClass::kData) bits = kDataMsgBits;
    return (bits + mp_.flit_bits - 1) / mp_.flit_bits;
  }

  Link& link(CoreId node, Port port) {
    return links_[static_cast<std::size_t>(node) * kPorts + port];
  }

  Cycle route_head(CoreId from, CoreId to, Cycle head, int flits) {
    int cx = geom_.x(from), cy = geom_.y(from);
    const int tx = geom_.x(to), ty = geom_.y(to);
    std::uint64_t hops = 0;
    for (; cx != tx || cy != ty; ++hops) {
      Port port;
      int nx = cx, ny = cy;
      if (cx != tx) {
        port = (tx > cx) ? kE : kW;
        nx += (tx > cx) ? 1 : -1;
      } else {
        port = (ty > cy) ? kS : kN;
        ny += (ty > cy) ? 1 : -1;
      }
      head = link(geom_.core_at(cx, cy), port)
                 .acquire(head + kRouterDelay, static_cast<Cycle>(flits)) +
             kLinkDelay;
      cx = nx;
      cy = ny;
    }
    counters_.enet_router_flits += hops * static_cast<std::uint64_t>(flits);
    counters_.enet_link_flits += hops * static_cast<std::uint64_t>(flits);
    return head;
  }

  Cycle eject(CoreId dst, Cycle head_arrival, int flits) {
    const Cycle start = link(dst, kEject).acquire(head_arrival + kRouterDelay,
                                                  static_cast<Cycle>(flits));
    counters_.enet_router_flits += flits;
    return start + kLinkDelay + flits - 1;
  }

  std::pair<Cycle, Cycle> unicast_leg(Cycle t, CoreId src, CoreId dst,
                                      int flits) {
    const Cycle start =
        link(src, kInject).acquire(t, static_cast<Cycle>(flits));
    const Cycle head = route_head(src, dst, start, flits);
    return {start + flits, eject(dst, head, flits)};
  }

  Cycle bcast_tree(Cycle t, CoreId src, int flits, MsgClass cls,
                   std::vector<Arrival>& out) {
    const Cycle start =
        link(src, kInject).acquire(t, static_cast<Cycle>(flits));
    Cycle last = start;
    const auto arrive = [&](CoreId c, Cycle head) {
      const Cycle tail = eject(c, head, flits);
      out.push_back({c, tail});
      last = std::max(last, tail);
    };
    const int sy = geom_.y(src);
    const auto column_walks = [&](CoreId row_node, Cycle head) {
      const int x = geom_.x(row_node);
      for (int dir : {-1, +1}) {
        Cycle h = head;
        for (int yy = sy; yy + dir >= 0 && yy + dir < geom_.width();
             yy += dir) {
          const CoreId to = geom_.core_at(x, yy + dir);
          h = route_head(geom_.core_at(x, yy), to, h, flits);
          arrive(to, h);
        }
      }
    };
    column_walks(src, start);
    for (int dir : {-1, +1}) {
      Cycle h = start;
      for (int xx = geom_.x(src); xx + dir >= 0 && xx + dir < geom_.width();
           xx += dir) {
        const CoreId to = geom_.core_at(xx + dir, sy);
        h = route_head(geom_.core_at(xx, sy), to, h, flits);
        arrive(to, h);
        column_walks(to, h);
      }
    }
    count_broadcast(t, last, flits, static_cast<std::uint64_t>(flits),
                    geom_.num_cores() - 1, cls);
    return start + flits;
  }

  MachineParams mp_;
  MeshGeom geom_;
  std::vector<Link> links_;
  bool hw_broadcast_;
};

// Drives EMeshModel and the node-major reference with the same seeded
// packets: unicasts of every class between random cores and one broadcast
// in 16, injected a few cycles apart so that links contend. After every
// packet it compares every arrival, the sender-free cycle, every counter and
// the channel usage.
TEST(EMeshModel, MatchesNodeMajorLinkReference) {
  constexpr MsgClass kClasses[] = {MsgClass::kCoherence, MsgClass::kData,
                                   MsgClass::kSynthetic};
  struct Mesh {
    int width, cluster_width, packets;
  };
  for (const Mesh mesh : {Mesh{4, 2, 4000}, Mesh{32, 4, 600}}) {
    for (const bool hw_broadcast : {false, true}) {
      SCOPED_TRACE(testing::Message()
                   << mesh.width << "x" << mesh.width
                   << (hw_broadcast ? ", hw broadcast" : ", unicast fan-out"));
      const auto mp = MachineParams::small(mesh.width, mesh.cluster_width);
      EMeshModel m(mp, hw_broadcast);
      NodeMajorEMesh ref(mp, hw_broadcast);
      Xoshiro256 rng(static_cast<std::uint64_t>(mesh.width * 2 + hw_broadcast));
      const auto cores = static_cast<std::uint64_t>(mp.num_cores);
      Cycle t = 0;
      std::vector<Arrival> got, want;
      std::vector<ChannelUsage> got_use, want_use;
      for (int i = 0; i < mesh.packets; ++i) {
        t += rng.next_below(4);
        NetPacket p;
        p.src = static_cast<CoreId>(rng.next_below(cores));
        p.dst = rng.next_below(16) == 0
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
        for (std::size_t k = 0; k < got.size(); ++k) {
          ASSERT_EQ(got[k].receiver, want[k].receiver) << "packet " << i;
          ASSERT_EQ(got[k].at, want[k].at) << "packet " << i;
        }
        for_each_counter(
            [&](const char* name, std::uint64_t a, std::uint64_t b) {
              EXPECT_EQ(a, b) << name << ", packet " << i;
            },
            m.counters(), ref.counters());
        ASSERT_EQ(m.counters().packet_latency.n,
                  ref.counters().packet_latency.n);
        ASSERT_EQ(m.counters().packet_latency.sum,
                  ref.counters().packet_latency.sum);
        ASSERT_EQ(m.counters().packet_latency.max,
                  ref.counters().packet_latency.max);
        got_use.clear();
        want_use.clear();
        m.append_channel_usage(got_use);
        ref.append_channel_usage(want_use);
        ASSERT_EQ(got_use.size(), want_use.size());
        for (std::size_t k = 0; k < got_use.size(); ++k) {
          ASSERT_EQ(std::string(got_use[k].name), want_use[k].name);
          ASSERT_EQ(got_use[k].busy_cycles, want_use[k].busy_cycles)
              << "packet " << i;
          ASSERT_EQ(got_use[k].channels, want_use[k].channels);
        }
        if (HasFailure()) return;
      }
    }
  }
}

}  // namespace
}  // namespace atacsim::net
