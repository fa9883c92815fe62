#include "sim/trace.hpp"

#include "sim/machine.hpp"

namespace atacsim::sim {

namespace {

/// What a replayed access needs beside its record: one per core.
struct Replayer {
  mem::CacheController* cache;
  Cycle* last_done;
};

/// Event handler: core `self` issues the access of the record at `rec`.
void issue(void* self, std::uint64_t rec) {
  const auto& p = *static_cast<const Replayer*>(self);
  const auto& r =
      *reinterpret_cast<const TraceRecord*>(static_cast<std::uintptr_t>(rec));
  p.cache->access(r.addr, r.write, {p.last_done, {}});
}

}  // namespace

ReplayResult replay_trace(Machine& machine, const Trace& trace) {
  ReplayResult r;
  // Every access raises the one shared slot to its commit cycle.
  Cycle last_done = 0;

  const std::size_t cores =
      std::min(trace.per_core.size(),
               static_cast<std::size_t>(machine.params().num_cores));
  std::vector<Replayer> replayers(cores);
  for (std::size_t c = 0; c < cores; ++c) {
    replayers[c] = {&machine.cache(static_cast<CoreId>(c)), &last_done};
    Cycle t = 0;
    for (const TraceRecord& rec : trace.per_core[c]) {
      t += rec.gap;
      machine.events().schedule(t, issue, &replayers[c],
                                reinterpret_cast<std::uintptr_t>(&rec));
    }
  }

  machine.run();
  r.completion_cycles = last_done;
  r.net = machine.net_counters();
  r.mem = machine.mem_counters();
  return r;
}

}  // namespace atacsim::sim
