// Coherence traffic study: how a sharing pattern turns into network traffic
// under ACKwise_k vs Dir_kB — the paper's Sec. V-F in miniature, runnable
// in under a second on a 64-core machine.
//
//   $ ./build/examples/coherence_traffic_study
//
// The kernel makes N cores share one line, then a writer invalidates them.
// Watch the invalidation mode flip from unicast to broadcast as the sharer
// count crosses k, and the ack count differ between the protocols.
#include <cstdio>
#include <iostream>

#include "common/table.hpp"
#include "sim/machine.hpp"

using namespace atacsim;

namespace {

struct Result {
  std::uint64_t unicast_pkts;
  std::uint64_t bcast_pkts;
  std::uint64_t inv_unicasts;
  std::uint64_t inv_bcasts;
  Cycle write_latency;
};

Result share_then_write(CoherenceKind coh, int k, int sharers) {
  auto mp = MachineParams::small(8, 2);
  mp.coherence = coh;
  mp.num_hw_sharers = k;
  sim::Machine m(mp);

  static std::uint64_t word;  // any host address works as a simulated line
  const Addr a = reinterpret_cast<Addr>(&word);

  Cycle read_done = 0;
  for (CoreId c = 1; c <= sharers; ++c) {
    m.cache(c).access(a, false, {&read_done, {}});
    m.run();
  }
  const auto base = m.net_counters();
  const auto base_mem = m.mem_counters();
  const Cycle t0 = m.now();
  Cycle done = 0;
  m.cache(40).access(a, true, {&done, {}});
  m.run();

  Result r;
  r.unicast_pkts = m.net_counters().unicast_packets - base.unicast_packets;
  r.bcast_pkts = m.net_counters().bcast_packets - base.bcast_packets;
  r.inv_unicasts =
      m.mem_counters().invalidations_sent - base_mem.invalidations_sent;
  r.inv_bcasts =
      m.mem_counters().bcast_invalidations - base_mem.bcast_invalidations;
  r.write_latency = done - t0;
  return r;
}

}  // namespace

int main() {
  std::printf(
      "One write after S sharers cached the line (64-core machine, k=4)\n\n");
  Table t({"protocol", "sharers", "inv mode", "msgs (uni/bcast)",
           "write latency (cycles)"});
  for (auto coh : {CoherenceKind::kAckwise, CoherenceKind::kDirKB}) {
    for (int sharers : {2, 4, 8, 16, 32, 63}) {
      const auto r = share_then_write(coh, 4, sharers);
      t.add_row({to_string(coh), std::to_string(sharers),
                 r.inv_bcasts ? "broadcast" : "unicast",
                 std::to_string(r.unicast_pkts) + "/" +
                     std::to_string(r.bcast_pkts),
                 std::to_string(r.write_latency)});
    }
  }
  t.print(std::cout);
  std::printf(
      "\nReading: past k=4 sharers both protocols broadcast, but ACKwise"
      "\ncollects acks only from the true sharers while Dir_kB hears from"
      "\nall 64 cores — the gap that widens to 1024 acks at full scale and"
      "\ncosts Dir4B its energy-delay advantage (paper Fig. 14).\n");
  return 0;
}
