#include "network/synthetic.hpp"

#include <cmath>
#include <queue>
#include <vector>

namespace atacsim::net {
namespace {

/// Geometric inter-arrival sampling for a Bernoulli-per-cycle process.
Cycle next_gap(Xoshiro256& rng, double p_per_cycle) {
  if (p_per_cycle <= 0) return kNeverCycle;
  const double u = rng.next_double();
  const double g = std::floor(std::log1p(-u) / std::log1p(-p_per_cycle));
  return static_cast<Cycle>(g) + 1;
}

}  // namespace

SyntheticResult run_synthetic(NetworkModel& net, const MeshGeom& geom,
                              const SyntheticConfig& cfg) {
  const int n = geom.num_cores();
  const double pkts_per_cycle =
      cfg.offered_load / static_cast<double>(cfg.packet_flits);

  Xoshiro256 rng(cfg.seed);
  using Item = std::pair<Cycle, CoreId>;  // (next injection time, core)
  std::priority_queue<Item, std::vector<Item>, std::greater<>> q;
  for (CoreId c = 0; c < n; ++c)
    q.emplace(next_gap(rng, pkts_per_cycle), c);

  const Cycle t_end = cfg.warmup_cycles + cfg.measure_cycles;
  bool measuring = false;
  std::uint64_t flits_before = 0;

  std::vector<Arrival> arrivals;  // reused; open-loop drivers ignore them
  while (!q.empty() && q.top().first < t_end) {
    auto [t, src] = q.top();
    q.pop();
    if (!measuring && t >= cfg.warmup_cycles) {
      net.counters().packet_latency.reset();
      flits_before = net.counters().flits_injected;
      measuring = true;
    }
    NetPacket p;
    p.src = src;
    p.cls = MsgClass::kSynthetic;
    p.bits = cfg.packet_flits * 64;  // raw bits; flit width set by model
    if (rng.bernoulli(cfg.bcast_fraction)) {
      p.dst = kBroadcastCore;
    } else {
      CoreId dst = static_cast<CoreId>(rng.next_below(n - 1));
      if (dst >= src) ++dst;  // uniform over all other cores
      p.dst = dst;
    }
    arrivals.clear();
    net.inject(t, p, arrivals);
    q.emplace(t + next_gap(rng, pkts_per_cycle), src);
  }

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

}  // namespace atacsim::net
