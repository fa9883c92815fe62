#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <queue>
#include <stdexcept>
#include <vector>

#include "common/digest.hpp"
#include "network/atac_model.hpp"
#include "network/synthetic.hpp"

namespace atacsim::net {
namespace {

MachineParams small_atac(RoutingPolicy pol, int r = 4) {
  auto p = MachineParams::small(8, 2);
  p.network = NetworkKind::kAtacPlus;
  p.routing = pol;
  p.r_thres = r;
  return p;
}

SyntheticConfig light() {
  SyntheticConfig c;
  c.offered_load = 0.01;
  c.warmup_cycles = 2000;
  c.measure_cycles = 8000;
  return c;
}

TEST(Synthetic, DeterministicAcrossRuns) {
  const auto mp = small_atac(RoutingPolicy::kCluster);
  AtacModel a(mp), b(mp);
  const auto ra = run_synthetic(a, a.geom(), light());
  const auto rb = run_synthetic(b, b.geom(), light());
  EXPECT_EQ(ra.packets_measured, rb.packets_measured);
  EXPECT_DOUBLE_EQ(ra.avg_latency_cycles, rb.avg_latency_cycles);
}

TEST(Synthetic, AcceptedLoadTracksOfferedBelowSaturation) {
  const auto mp = small_atac(RoutingPolicy::kDistance, 4);
  AtacModel m(mp);
  auto cfg = light();
  cfg.offered_load = 0.02;
  const auto r = run_synthetic(m, m.geom(), cfg);
  EXPECT_NEAR(r.accepted_flits_per_cycle_per_core, 0.02, 0.004);
}

TEST(Synthetic, LatencyRisesWithLoad) {
  const auto mp = small_atac(RoutingPolicy::kCluster);
  double prev = 0;
  for (double load : {0.005, 0.05, 0.12}) {
    AtacModel m(mp);
    auto cfg = light();
    cfg.offered_load = load;
    const auto r = run_synthetic(m, m.geom(), cfg);
    EXPECT_GT(r.avg_latency_cycles, prev);
    prev = r.avg_latency_cycles;
  }
}

TEST(Synthetic, ClusterPolicySaturatesBeforeDistance) {
  // Under heavy uniform-random load the Cluster policy funnels everything
  // through the per-hub SWMR channels; distance-based routing offloads short
  // trips to the ENet and keeps latency bounded longer (paper Fig. 3).
  auto heavy = light();
  heavy.offered_load = 0.30;
  heavy.warmup_cycles = 1000;
  heavy.measure_cycles = 6000;

  AtacModel cluster(small_atac(RoutingPolicy::kCluster));
  AtacModel distance(small_atac(RoutingPolicy::kDistance, 6));
  const auto rc = run_synthetic(cluster, cluster.geom(), heavy);
  const auto rd = run_synthetic(distance, distance.geom(), heavy);
  EXPECT_GT(rc.avg_latency_cycles, 1.5 * rd.avg_latency_cycles);
}

TEST(Synthetic, BroadcastFractionGeneratesBroadcasts) {
  const auto mp = small_atac(RoutingPolicy::kCluster);
  AtacModel m(mp);
  auto cfg = light();
  cfg.bcast_fraction = 0.05;
  run_synthetic(m, m.geom(), cfg);
  EXPECT_GT(m.counters().bcast_packets, 0u);
  const double frac =
      static_cast<double>(m.counters().bcast_packets) /
      static_cast<double>(m.counters().bcast_packets +
                          m.counters().unicast_packets);
  EXPECT_NEAR(frac, 0.05, 0.02);
}

TEST(Synthetic, ZeroLoadProducesNoPackets) {
  const auto mp = small_atac(RoutingPolicy::kCluster);
  AtacModel m(mp);
  auto cfg = light();
  cfg.offered_load = 0.0;
  const auto r = run_synthetic(m, m.geom(), cfg);
  EXPECT_EQ(r.packets_measured, 0u);
}

TEST(Synthetic, RefusesConfigsItCannotDrive) {
  const auto mp = small_atac(RoutingPolicy::kCluster);
  const auto refused = [&](auto edit) {
    AtacModel m(mp);
    auto cfg = light();
    edit(cfg);
    EXPECT_THROW(run_synthetic(m, m.geom(), cfg), std::invalid_argument);
  };
  refused([](SyntheticConfig& c) { c.packet_flits = 0; });
  refused([](SyntheticConfig& c) { c.packet_flits = -4; });
  refused([](SyntheticConfig& c) {
    c.offered_load = std::numeric_limits<double>::quiet_NaN();
  });
  refused([](SyntheticConfig& c) { c.offered_load = -0.01; });
  refused([](SyntheticConfig& c) { c.offered_load = 1.5; });
  refused([](SyntheticConfig& c) {
    c.offered_load = std::numeric_limits<double>::infinity();
  });
  refused([](SyntheticConfig& c) {
    c.packet_flits = 4;
    c.offered_load = 4.4;
  });
  refused([](SyntheticConfig& c) { c.measure_cycles = 0; });

  // One packet per core per cycle is the most the driver can offer.
  AtacModel m(mp);
  auto cfg = light();
  cfg.packet_flits = 4;
  cfg.offered_load = 4.0;
  cfg.warmup_cycles = 10;
  cfg.measure_cycles = 20;
  EXPECT_NO_THROW(run_synthetic(m, m.geom(), cfg));
}

// --- Differential: the (cycle, core) heap the calendar replaced ------------

/// Reference driver: the binary heap of (next injection cycle, core) pairs
/// run_synthetic kept before its calendar of core bitmaps, with log1p(-p)
/// taken on every draw. Same packets, same RNG draws, same result.
Cycle reference_gap(Xoshiro256& rng, double p_per_cycle) {
  if (p_per_cycle <= 0) return kNeverCycle;
  const double u = rng.next_double();
  const double g = std::floor(std::log1p(-u) / std::log1p(-p_per_cycle));
  return static_cast<Cycle>(g) + 1;
}

SyntheticResult reference_synthetic(NetworkModel& net, const MeshGeom& geom,
                                    const SyntheticConfig& cfg) {
  const int n = geom.num_cores();
  const double pkts_per_cycle =
      cfg.offered_load / static_cast<double>(cfg.packet_flits);

  Xoshiro256 rng(cfg.seed);
  using Item = std::pair<Cycle, CoreId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> q;
  for (CoreId c = 0; c < n; ++c)
    q.emplace(reference_gap(rng, pkts_per_cycle), c);

  const Cycle t_end = cfg.warmup_cycles + cfg.measure_cycles;
  std::vector<Arrival> arrivals;
  // Injects every packet due before cycle `to`.
  const auto inject_until = [&](Cycle to) {
    while (!q.empty() && q.top().first < to) {
      auto [t, src] = q.top();
      q.pop();
      NetPacket p;
      p.src = src;
      p.cls = MsgClass::kSynthetic;
      p.bits = cfg.packet_flits * 64;
      if (rng.bernoulli(cfg.bcast_fraction)) {
        p.dst = kBroadcastCore;
      } else {
        CoreId dst = static_cast<CoreId>(rng.next_below(n - 1));
        if (dst >= src) ++dst;
        p.dst = dst;
      }
      arrivals.clear();
      net.inject(t, p, arrivals);
      q.emplace(t + reference_gap(rng, pkts_per_cycle), src);
    }
  };
  // The window opens at the warm-up's end, whether a packet is due then or
  // not.
  inject_until(cfg.warmup_cycles);
  net.counters().packet_latency.reset();
  const std::uint64_t flits_before = net.counters().flits_injected;
  inject_until(t_end);

  SyntheticResult r;
  const auto& acc = net.counters().packet_latency;
  r.avg_latency_cycles = acc.mean();
  r.max_latency_cycles = acc.max;
  r.packets_measured = acc.n;
  r.accepted_flits_per_cycle_per_core =
      static_cast<double>(net.counters().flits_injected - flits_before) /
      (static_cast<double>(cfg.measure_cycles) * n);
  return r;
}

/// Folds every injection's (t, src, dst, bits) into a digest, in order. Each
/// packet's latency is taken from the running digest, so an injection issued
/// out of order also moves the latency statistics of the result.
class RecordingNet final : public NetworkModel {
 public:
  explicit RecordingNet(int cores) : cores_(cores) {}

  Cycle inject(Cycle t, const NetPacket& p, std::vector<Arrival>&) override {
    log_.add(t);
    log_.add(static_cast<std::uint64_t>(p.src));
    log_.add(static_cast<std::uint64_t>(p.dst));
    log_.add(static_cast<std::uint64_t>(p.bits));
    ++packets_;
    const int flits = p.bits / 64;
    const Cycle tail = t + 1 + log_.value() % 61;
    if (p.is_broadcast())
      count_broadcast(t, tail, flits, flits, cores_ - 1, p.cls);
    else
      count_unicast(t, tail, flits, p.cls);
    return t + flits;
  }

  std::uint64_t log() const { return log_.value(); }
  std::uint64_t packets() const { return packets_; }

 private:
  int cores_;
  Digest log_;
  std::uint64_t packets_ = 0;
};

void expect_bit_equal(const SyntheticResult& got, const SyntheticResult& want) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.avg_latency_cycles),
            std::bit_cast<std::uint64_t>(want.avg_latency_cycles));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.max_latency_cycles),
            std::bit_cast<std::uint64_t>(want.max_latency_cycles));
  EXPECT_EQ(got.packets_measured, want.packets_measured);
  EXPECT_EQ(
      std::bit_cast<std::uint64_t>(got.accepted_flits_per_cycle_per_core),
      std::bit_cast<std::uint64_t>(want.accepted_flits_per_cycle_per_core));
}

struct Injected {
  std::uint64_t packets;
  SyntheticResult result;
};

/// Runs both drivers on a recording network of `width`^2 cores and requires
/// the same injection sequence and a bit-equal result.
Injected expect_same_as_heap(int width, const SyntheticConfig& cfg) {
  const MeshGeom geom(MachineParams::small(width, 1));
  RecordingNet got(geom.num_cores()), want(geom.num_cores());
  const auto rg = run_synthetic(got, geom, cfg);
  const auto rw = reference_synthetic(want, geom, cfg);
  EXPECT_EQ(got.packets(), want.packets());
  EXPECT_EQ(got.log(), want.log());
  expect_bit_equal(rg, rw);
  return {want.packets(), rw};
}

SyntheticConfig window(double load, Cycle warmup, Cycle measure,
                       std::uint64_t seed) {
  SyntheticConfig c;
  c.offered_load = load;
  c.bcast_fraction = 0.01;
  c.warmup_cycles = warmup;
  c.measure_cycles = measure;
  c.seed = seed;
  return c;
}

TEST(SyntheticDifferential, CoreCountsOffTheBitmapWordSize) {
  // 16, 36 and 100 cores leave the last bitmap word part full; 64 fills it.
  for (int width : {4, 6, 8, 10}) {
    for (double load : {0.001, 0.02, 0.3, 1.0}) {
      SCOPED_TRACE(testing::Message() << width << "x" << width << " " << load);
      EXPECT_GT(expect_same_as_heap(width, window(load, 300, 1500, 7 + width))
                    .packets,
                0u);
    }
  }
}

TEST(SyntheticDifferential, ThousandCores) {
  for (double load : {0.02, 0.06, 1.0}) {
    SCOPED_TRACE(load);
    EXPECT_GT(expect_same_as_heap(32, window(load, 200, 600, 3)).packets, 0u);
  }
}

TEST(SyntheticDifferential, MeanGapLongerThanTheRing) {
  // Mean gaps of 1,000 and 5,000 cycles: most cores wait out several laps
  // of the calendar before their next injection.
  for (double load : {0.001, 0.0002}) {
    SCOPED_TRACE(load);
    EXPECT_GT(expect_same_as_heap(10, window(load, 2000, 20000, 11)).packets,
              0u);
  }
}

TEST(SyntheticDifferential, FourFlitPackets) {
  for (double load : {0.02, 0.4, 4.0}) {
    SCOPED_TRACE(load);
    auto cfg = window(load, 300, 1500, 5);
    cfg.packet_flits = 4;
    EXPECT_GT(expect_same_as_heap(6, cfg).packets, 0u);
  }
}

TEST(SyntheticDifferential, WarmupBoundary) {
  // No warm-up, a one-cycle warm-up, a boundary mid-traffic, and a window
  // so short at so low a load that no packet falls in it: the window still
  // opens, so nothing is measured and no load is accepted.
  EXPECT_GT(expect_same_as_heap(4, window(0.3, 0, 500, 1)).packets, 0u);
  EXPECT_GT(expect_same_as_heap(4, window(0.3, 1, 500, 2)).packets, 0u);
  const auto mid = expect_same_as_heap(6, window(0.05, 777, 3, 3));
  EXPECT_GT(mid.packets, mid.result.packets_measured);
  EXPECT_GT(mid.result.packets_measured, 0u);
  const auto empty = expect_same_as_heap(4, window(0.0002, 3000, 2, 4));
  EXPECT_GT(empty.packets, 0u);
  EXPECT_EQ(empty.result.packets_measured, 0u);
  EXPECT_EQ(empty.result.accepted_flits_per_cycle_per_core, 0.0);
  EXPECT_EQ(expect_same_as_heap(4, window(0.0, 100, 500, 5)).packets, 0u);
}

TEST(SyntheticDifferential, AtacThousandCoreCellMatchesByCounterDigest) {
  auto mp = MachineParams{};
  mp.network = NetworkKind::kAtacPlus;
  SyntheticConfig cfg;
  cfg.offered_load = 0.02;
  cfg.warmup_cycles = 1000;
  cfg.measure_cycles = 3000;
  cfg.seed = 1;
  AtacModel got(mp), want(mp);
  const auto rg = run_synthetic(got, got.geom(), cfg);
  const auto rw = reference_synthetic(want, want.geom(), cfg);
  expect_bit_equal(rg, rw);
  Digest dg, dw;
  dg.add(got.counters());
  dw.add(want.counters());
  EXPECT_EQ(dg.value(), dw.value());
  EXPECT_GT(want.counters().unicast_packets, 50'000u);
}

}  // namespace
}  // namespace atacsim::net
