// Property-style parameterized sweeps over the flow-level network models:
// delivery conservation, latency monotonicity, and flit accounting across
// routing policies, flit widths and network kinds.
#include <gtest/gtest.h>

#include <map>
#include <ostream>

#include "arrivals.hpp"
#include "common/rng.hpp"
#include "network/atac_model.hpp"
#include "network/synthetic.hpp"

namespace atacsim::net {
namespace {

struct NetCase {
  NetworkKind kind;
  RoutingPolicy routing;
  int r_thres;
  int flit_bits;
};

void PrintTo(const NetCase& c, std::ostream* os) {
  *os << to_string(c.kind) << '/' << to_string(c.routing) << '/' << c.r_thres
      << '/' << c.flit_bits;
}

MachineParams params_of(const NetCase& c) {
  auto p = MachineParams::small(8, 2);
  p.network = c.kind;
  p.routing = c.routing;
  p.r_thres = c.r_thres;
  p.flit_bits = c.flit_bits;
  return p;
}

class NetProperty : public ::testing::TestWithParam<NetCase> {};

TEST_P(NetProperty, EveryPacketDeliveredToExactlyTheRightReceivers) {
  const auto mp = params_of(GetParam());
  auto net = make_network(mp);
  const MeshGeom geom(mp);
  Xoshiro256 rng(17);

  std::map<CoreId, int> hits;
  Cycle t = 0;
  int unicasts = 0, bcasts = 0;
  for (int i = 0; i < 300; ++i) {
    NetPacket p;
    p.src = static_cast<CoreId>(rng.next_below(64));
    p.cls = MsgClass::kCoherence;
    if (rng.bernoulli(0.1)) {
      p.dst = kBroadcastCore;
      ++bcasts;
    } else {
      p.dst = static_cast<CoreId>(rng.next_below(63));
      if (p.dst >= p.src) ++p.dst;
      ++unicasts;
    }
    for (const Arrival& a : arrivals_of(*net, t, p)) {
      EXPECT_GE(a.at, t);
      ++hits[a.receiver];
    }
    t += 3;
  }
  std::uint64_t total = 0;
  for (auto& [core, n] : hits) {
    (void)core;
    total += static_cast<std::uint64_t>(n);
  }
  EXPECT_EQ(total, static_cast<std::uint64_t>(unicasts) + 63ull * bcasts);
  EXPECT_EQ(net->counters().unicast_packets,
            static_cast<std::uint64_t>(unicasts));
  EXPECT_EQ(net->counters().bcast_packets, static_cast<std::uint64_t>(bcasts));
}

TEST_P(NetProperty, LatencyIsMonotoneNonDecreasingInLoad) {
  const auto mp = params_of(GetParam());
  double prev = 0;
  for (double load : {0.005, 0.06, 0.25}) {
    auto net = make_network(mp);
    const MeshGeom geom(mp);
    SyntheticConfig cfg;
    cfg.offered_load = load;
    cfg.warmup_cycles = 1500;
    cfg.measure_cycles = 6000;
    const auto r = run_synthetic(*net, geom, cfg);
    EXPECT_GE(r.avg_latency_cycles, prev * 0.95)  // allow sampling jitter
        << "load " << load;
    prev = r.avg_latency_cycles;
  }
}

TEST_P(NetProperty, FlitAccountingMatchesMessageSizes) {
  const auto mp = params_of(GetParam());
  auto net = make_network(mp);
  NetPacket p;
  p.src = 0;
  p.dst = 63;
  p.cls = MsgClass::kData;  // 616 bits
  arrivals_of(*net, 0, p);
  const int expected_flits = (kDataMsgBits + mp.flit_bits - 1) / mp.flit_bits;
  EXPECT_EQ(net->counters().flits_injected,
            static_cast<std::uint64_t>(expected_flits));
  EXPECT_EQ(net->counters().recv_unicast_flits,
            static_cast<std::uint64_t>(expected_flits));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, NetProperty,
    ::testing::Values(
        NetCase{NetworkKind::kEMeshPure, RoutingPolicy::kDistance, 6, 64},
        NetCase{NetworkKind::kEMeshBCast, RoutingPolicy::kDistance, 6, 64},
        NetCase{NetworkKind::kAtacPlus, RoutingPolicy::kCluster, 0, 64},
        NetCase{NetworkKind::kAtacPlus, RoutingPolicy::kDistance, 4, 64},
        NetCase{NetworkKind::kAtacPlus, RoutingPolicy::kDistanceAll, 0, 64},
        NetCase{NetworkKind::kAtacPlus, RoutingPolicy::kDistance, 4, 16},
        NetCase{NetworkKind::kAtacPlus, RoutingPolicy::kDistance, 4, 256}),
    [](const auto& info) {
      const auto& c = info.param;
      std::string n = c.kind == NetworkKind::kAtacPlus
                          ? "atac"
                          : (c.kind == NetworkKind::kEMeshBCast ? "bcast"
                                                                : "pure");
      n += c.routing == RoutingPolicy::kCluster
               ? "_cluster"
               : (c.routing == RoutingPolicy::kDistanceAll ? "_all"
                                                           : "_dist");
      n += "_f" + std::to_string(c.flit_bits);
      return n;
    });

TEST(NetInvariant, AtacFlitWidthChangesMessageFlits) {
  auto mp = MachineParams::small(8, 2);
  mp.network = NetworkKind::kAtacPlus;
  for (int w : {16, 64, 256}) {
    mp.flit_bits = w;
    AtacModel m(mp);
    NetPacket p;
    p.cls = MsgClass::kData;
    EXPECT_EQ(m.flits_of(p), (616 + w - 1) / w);
  }
}

TEST(NetInvariant, OnetLaserCyclesEqualOnetFlitsSent) {
  auto mp = MachineParams::small(8, 2);
  mp.network = NetworkKind::kAtacPlus;
  mp.routing = RoutingPolicy::kCluster;
  AtacModel m(mp);
  Xoshiro256 rng(5);
  for (int i = 0; i < 200; ++i) {
    NetPacket p;
    p.src = static_cast<CoreId>(rng.next_below(64));
    p.dst = rng.bernoulli(0.2)
                ? kBroadcastCore
                : static_cast<CoreId>(rng.next_below(64));
    if (p.dst == p.src) p.dst = kBroadcastCore;
    p.cls = MsgClass::kCoherence;
    arrivals_of(m, static_cast<Cycle>(i * 5), p);
  }
  // Every modulated flit burns the laser for exactly one cycle in the
  // matching mode (unicast or broadcast).
  EXPECT_EQ(m.counters().onet_flits_sent,
            m.counters().laser_unicast_cycles +
                m.counters().laser_bcast_cycles);
}

}  // namespace
}  // namespace atacsim::net
