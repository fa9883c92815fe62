#include "network/synthetic.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <vector>

namespace atacsim::net {
namespace {

/// Slots in the injection calendar, one per cycle of a lap (a power of two).
/// A core whose next injection lies a lap or more ahead keeps its bit in its
/// slot and is passed over until its own lap comes round.
constexpr Cycle kRingSlots = 256;

void validate(const SyntheticConfig& cfg) {
  if (cfg.packet_flits < 1)
    throw std::invalid_argument("synthetic packet_flits must be at least 1");
  if (!(cfg.offered_load >= 0))
    throw std::invalid_argument(
        "synthetic offered_load must be a non-negative number");
  if (cfg.offered_load / cfg.packet_flits > 1)
    throw std::invalid_argument(
        "synthetic offered_load exceeds one packet per core per cycle");
  if (cfg.measure_cycles == 0)
    throw std::invalid_argument("synthetic measure_cycles must be positive");
}

/// Geometric inter-arrival sampling for a Bernoulli-per-cycle process with
/// `log_q` = log1p(-p), p in (0, 1]. A gap of `horizon` cycles or more comes
/// back as `horizon`: such a core injects no more in the run.
Cycle next_gap(Xoshiro256& rng, double log_q, Cycle horizon) {
  const double g = std::floor(std::log1p(-rng.next_double()) / log_q);
  return g < static_cast<double>(horizon) ? static_cast<Cycle>(g) + 1
                                          : horizon;
}

}  // namespace

SyntheticResult run_synthetic(NetworkModel& net, const MeshGeom& geom,
                              const SyntheticConfig& cfg) {
  validate(cfg);
  const int n = geom.num_cores();
  const double pkts_per_cycle =
      cfg.offered_load / static_cast<double>(cfg.packet_flits);
  const Cycle t_end = cfg.warmup_cycles + cfg.measure_cycles;

  // Injection calendar: `next[c]` is core c's next injection cycle, and its
  // bit sits in slot next[c] % kRingSlots, each slot one bitmap of the cores.
  // Walking the cycles in order and each slot's bits in ascending core id
  // issues injections by (cycle, core id) and draws the RNG in that order.
  // Both arrays share one allocation: with two, the heap they left behind
  // made the next 1024-core network's construction about 30% slower.
  const std::size_t words = (static_cast<std::size_t>(n) + 63) / 64;
  std::vector<std::uint64_t> calendar(n + kRingSlots * words);
  Cycle* const next = calendar.data();
  std::uint64_t* const slots = next + n;
  const auto schedule = [&](CoreId c, Cycle at) {
    next[c] = at;
    if (at < t_end)
      slots[(at % kRingSlots) * words + c / 64] |= std::uint64_t{1} << (c % 64);
  };

  Xoshiro256 rng(cfg.seed);
  const double log_q = std::log1p(-pkts_per_cycle);
  if (pkts_per_cycle > 0)
    for (CoreId c = 0; c < n; ++c) schedule(c, next_gap(rng, log_q, t_end));

  std::vector<Arrival> arrivals;  // reused; open-loop drivers ignore them
  // Issues the injections of the cycles [from, to). Every gap is at least
  // one cycle, so cycle 0 never injects.
  const auto inject_cycles = [&](Cycle from, Cycle to) {
    for (Cycle t = std::max<Cycle>(from, 1); t < to && pkts_per_cycle > 0;
         ++t) {
      std::uint64_t* slot = &slots[(t % kRingSlots) * words];
      for (std::size_t w = 0; w < words; ++w) {
        for (std::uint64_t due = slot[w]; due != 0; due &= due - 1) {
          const int bit = std::countr_zero(due);
          const auto src = static_cast<CoreId>(w * 64 + bit);
          if (next[src] != t) continue;  // due in a later lap
          slot[w] &= ~(std::uint64_t{1} << bit);
          NetPacket p;
          p.src = src;
          p.cls = MsgClass::kSynthetic;
          p.bits = cfg.packet_flits * 64;  // raw bits; flit width by model
          if (rng.bernoulli(cfg.bcast_fraction)) {
            p.dst = kBroadcastCore;
          } else {
            CoreId dst = static_cast<CoreId>(rng.next_below(n - 1));
            if (dst >= src) ++dst;  // uniform over all other cores
            p.dst = dst;
          }
          arrivals.clear();
          net.inject(t, p, arrivals);
          schedule(src, t + next_gap(rng, log_q, t_end));
        }
      }
    }
  };

  // The measurement window opens at warmup_cycles, injection or not: only
  // the packets injected from then on are measured.
  inject_cycles(1, cfg.warmup_cycles);
  net.counters().packet_latency.reset();
  const std::uint64_t flits_before = net.counters().flits_injected;
  inject_cycles(cfg.warmup_cycles, t_end);

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
