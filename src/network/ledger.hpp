// Link-reservation ledgers: the contention engine of the flow-level network
// model. Every shared resource (a directed mesh link, a hub's optical data
// link, a StarNet) is a channel with a busy-until horizon; a packet
// reserves the channel for its serialization time, starting no earlier than
// both its arrival and the channel becoming free. Queueing delay (and hence
// saturation) emerges from the horizon racing ahead of the clock.
//
// One ledger holds a whole group of channels (all mesh links, all hub data
// links, all StarNets) as a flat array of horizons. Busy time is only ever
// read per group, so the ledger keeps one busy total for the group instead
// of a count per channel.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "common/types.hpp"

namespace atacsim::net {

/// A group of serial channels, indexed by slot.
class ChannelArray {
 public:
  explicit ChannelArray(std::size_t n) : busy_until_(n) {}

  /// Reserves channel `slot` for `duration` cycles, no earlier than `ready`.
  /// Returns the cycle at which service starts.
  Cycle acquire(std::size_t slot, Cycle ready, Cycle duration) {
    Cycle& until = busy_until_[slot];
    const Cycle start = std::max(ready, until);
    until = start + duration;
    busy_cycles_ += duration;
    return start;
  }

  /// The horizons themselves, for a caller that walks many adjacent slots
  /// per packet; it must add the busy time it reserves with add_busy().
  Cycle* horizons() { return busy_until_.data(); }
  void add_busy(Cycle cycles) { busy_cycles_ += cycles; }

  Cycle busy_until(std::size_t slot) const { return busy_until_[slot]; }
  /// Cycles reserved on all channels of the group together.
  Cycle busy_cycles() const { return busy_cycles_; }
  std::size_t size() const { return busy_until_.size(); }

 private:
  std::vector<Cycle> busy_until_;
  Cycle busy_cycles_ = 0;
};

}  // namespace atacsim::net
