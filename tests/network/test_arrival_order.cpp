// Pins the exact arrivals each network model reports, in the order it
// reports them.
//
// The Machine turns each run of consecutive arrivals that share a cycle into
// one event, taking the runs in list order, so every cycle's receivers run
// in the order the network listed them and that order is part of every
// simulated result. Each case drives one network with a fixed stream of
// mixed unicasts and broadcasts and folds every (receiver, arrival cycle) in
// delivery order, plus each sender-free cycle inject returns, into an FNV-1a
// hash. The expected values were produced by the simulator itself; a change
// that reorders, adds, drops or retimes an arrival moves them. A
// model-version bump of the result cache (src/harness/cache.cpp) means
// simulated results changed on purpose: re-record the table then.
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "common/digest.hpp"
#include "common/rng.hpp"
#include "network/atac_model.hpp"

namespace atacsim::net {
namespace {

struct OrderCase {
  const char* name;
  NetworkKind kind;
  RoutingPolicy routing;
  int r_thres;
  std::uint64_t expected_fnv;
  std::uint64_t expected_arrivals;
};

void PrintTo(const OrderCase& c, std::ostream* os) { *os << c.name; }

class ArrivalOrder : public ::testing::TestWithParam<OrderCase> {};

TEST_P(ArrivalOrder, MatchesRecordedHash) {
  const OrderCase& c = GetParam();
  auto mp = MachineParams::small(8, 2);
  mp.network = c.kind;
  mp.routing = c.routing;
  mp.r_thres = c.r_thres;
  auto net = make_network(mp);

  Xoshiro256 rng(17);
  Digest h;
  std::vector<Arrival> out;
  std::uint64_t arrivals = 0;
  Cycle t = 0;
  for (int i = 0; i < 300; ++i) {
    NetPacket p;
    p.src = static_cast<CoreId>(rng.next_below(64));
    p.cls = rng.bernoulli(0.3) ? MsgClass::kData : MsgClass::kCoherence;
    if (rng.bernoulli(0.1)) {
      p.dst = kBroadcastCore;
    } else {
      p.dst = static_cast<CoreId>(rng.next_below(63));
      if (p.dst >= p.src) ++p.dst;
    }
    out.clear();
    const Cycle sender_free = net->inject(t, p, out);
    for (const Arrival& a : out) {
      h.add(static_cast<std::uint64_t>(a.receiver));
      h.add(a.at);
    }
    arrivals += out.size();
    h.add(sender_free);
    t += 3;
  }
  EXPECT_EQ(arrivals, c.expected_arrivals);
  EXPECT_EQ(h.value(), c.expected_fnv)
      << "got 0x" << std::hex << h.value();
}

INSTANTIATE_TEST_SUITE_P(
    Nets, ArrivalOrder,
    ::testing::Values(
        OrderCase{"atac_cluster", NetworkKind::kAtacPlus,
                  RoutingPolicy::kCluster, 0, 0x7995e55e75a0407dull, 2408},
        OrderCase{"atac_dist15", NetworkKind::kAtacPlus,
                  RoutingPolicy::kDistance, 15, 0xad0d470f6ba067a1ull, 2408},
        OrderCase{"emesh_bcast", NetworkKind::kEMeshBCast,
                  RoutingPolicy::kDistance, 15, 0x8901ca5877df2894ull, 2408},
        OrderCase{"emesh_pure", NetworkKind::kEMeshPure,
                  RoutingPolicy::kDistance, 15, 0x8eb8236455fd0c9dull, 2408}),
    [](const auto& info) { return std::string(info.param.name); });

}  // namespace
}  // namespace atacsim::net
