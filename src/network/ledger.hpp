// Link-reservation ledgers: the contention engine of the flow-level network
// model. Every shared resource (a directed mesh link, a hub's optical data
// link, a cluster's StarNet) is a channel with a busy-until horizon; a packet
// reserves the channel for its serialization time, starting no earlier than
// both its arrival and the channel becoming free. Queueing delay (and hence
// saturation) emerges from the horizon racing ahead of the clock.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "common/types.hpp"

namespace atacsim::net {

/// A single serial channel.
class Channel {
 public:
  /// Reserves the channel for `duration` cycles, no earlier than `ready`.
  /// Returns the cycle at which service starts.
  Cycle acquire(Cycle ready, Cycle duration) {
    const Cycle start = std::max(ready, busy_until_);
    busy_until_ = start + duration;
    busy_cycles_ += duration;
    return start;
  }
  Cycle busy_until() const { return busy_until_; }
  Cycle busy_cycles() const { return busy_cycles_; }

 private:
  Cycle busy_until_ = 0;
  Cycle busy_cycles_ = 0;
};

/// `k` identical parallel channels (e.g. the two StarNets per cluster).
class ChannelGroup {
 public:
  explicit ChannelGroup(int k = 1) : ch_(static_cast<std::size_t>(k)) {}

  /// Reserves the channel selected by `key` (e.g. a sender hash). Keyed
  /// selection keeps messages of one flow on one channel, preserving the
  /// per-sender FIFO ordering directory protocols rely on.
  Cycle acquire_keyed(std::size_t key, Cycle ready, Cycle duration) {
    return ch_[key % ch_.size()].acquire(ready, duration);
  }
  Cycle busy_cycles() const {
    Cycle total = 0;
    for (const auto& c : ch_) total += c.busy_cycles();
    return total;
  }
  std::size_t size() const { return ch_.size(); }

 private:
  std::vector<Channel> ch_;
};

/// Dense array of channels indexed by an integer id (mesh links).
class ChannelArray {
 public:
  explicit ChannelArray(std::size_t n = 0) : ch_(n) {}
  void resize(std::size_t n) { ch_.assign(n, Channel{}); }
  Channel& operator[](std::size_t i) { return ch_[i]; }
  std::size_t size() const { return ch_.size(); }
  Cycle total_busy_cycles() const {
    Cycle t = 0;
    for (const auto& c : ch_) t += c.busy_cycles();
    return t;
  }

 private:
  std::vector<Channel> ch_;
};

}  // namespace atacsim::net
