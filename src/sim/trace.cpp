#include "sim/trace.hpp"

#include "sim/machine.hpp"

namespace atacsim::sim {

ReplayResult replay_trace(Machine& machine, const Trace& trace) {
  ReplayResult r;
  // Every access raises the one shared slot to its commit cycle.
  Cycle last_done = 0;

  for (CoreId c = 0;
       c < static_cast<CoreId>(trace.per_core.size()) &&
       c < machine.params().num_cores;
       ++c) {
    Cycle t = 0;
    for (const auto& rec : trace.per_core[static_cast<std::size_t>(c)]) {
      t += rec.gap;
      machine.events().schedule(t, [&machine, &last_done, c, rec] {
        machine.cache(c).access(rec.addr, rec.write, {&last_done, {}});
      });
    }
  }

  machine.run();
  r.completion_cycles = last_done;
  r.net = machine.net_counters();
  r.mem = machine.mem_counters();
  return r;
}

}  // namespace atacsim::sim
