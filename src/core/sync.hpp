// Synchronization library built *on top of the simulated coherence
// protocol* (the SPLASH-2 ANL-macro equivalents). Lock and barrier traffic
// therefore appears as real coherence traffic: a barrier release invalidates
// the release flag at every waiting core, which — once the sharer count
// exceeds ACKwise's k pointers — is exactly the broadcast-invalidation
// pattern the paper's applications exhibit.
//
// Spin-waits use CoreCtx::wait_for_change (invalidation wake-up), so waiting
// cores re-read the flag only when it actually changes — one coherence miss
// per release, as test-and-test-and-set spinning produces on real hardware.
//
// Every word a lock or barrier spins on lives in the program's
// sim::AddressSpace: a Lock is allocated there (make<Lock>() or
// array<Lock>(n)), and a Barrier takes its tree and sense flag from it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "core/core_ctx.hpp"
#include "core/task.hpp"
#include "sim/address_space.hpp"

namespace atacsim::core {

/// Ticket spinlock. Compared to test-and-set, a release wakes waiters into
/// cheap shared re-reads of `serving` instead of a thundering herd of
/// exclusive requests — the difference between O(waiters) coherence reads
/// and O(waiters) ownership transfers per handoff at 1000 cores. Each
/// counter has a line of its own.
class Lock {
 public:
  Task<void> acquire(CoreCtx& c) {
    const std::uint64_t my = co_await c.rmw(
        &ticket_, [](std::uint64_t v) -> std::uint64_t { return v + 1; });
    while (co_await c.read(&serving_) != my)
      co_await c.wait_for_change(&serving_);
  }

  /// The release's own `rmw` awaiter: co_await it to release the lock.
  auto release(CoreCtx& c) {
    return c.rmw(&serving_,
                 [](std::uint64_t v) -> std::uint64_t { return v + 1; });
  }

 private:
  alignas(64) std::uint64_t ticket_ = 0;
  alignas(64) std::uint64_t serving_ = 0;
};

/// Combining-tree sense-reversing barrier (fan-in 8), the SPLASH-2-at-scale
/// idiom: arrivals combine up a tree of counters (bounding any one line's
/// contention to the fan-in), and the release is a single sense-flag write —
/// which, with ~1000 spinning sharers, is exactly the ACKwise broadcast
/// invalidation the paper's applications exhibit.
class Barrier {
 public:
  static constexpr int kFanIn = 8;

  /// Takes the counter tree and the sense flag, each a block of its own,
  /// from `space`.
  Barrier(int participants, sim::AddressSpace& space) {
    // Level 0 holds ceil(n/8) counters fed by participants; each higher
    // level combines 8 below it, down to a single root.
    int width = (participants + kFanIn - 1) / kFanIn;
    int nodes = 0;
    while (true) {
      level_begin_.push_back(nodes);
      level_width_.push_back(width);
      nodes += width;
      if (width == 1) break;
      width = (width + kFanIn - 1) / kFanIn;
    }
    nodes_ = space.array<Node>(static_cast<std::size_t>(nodes));
    sense_ = &space.make<std::uint64_t>();
    // Arrival quota of each node: how many signals it waits for.
    for (std::size_t lvl = 0; lvl < level_width_.size(); ++lvl) {
      const int below =
          lvl == 0 ? participants : level_width_[lvl - 1];
      for (int i = 0; i < level_width_[lvl]; ++i) {
        const int lo = i * kFanIn;
        const int hi = std::min(below, lo + kFanIn);
        node(static_cast<int>(lvl), i).quota =
            static_cast<std::uint64_t>(hi - lo);
      }
    }
  }

  struct Sense {
    std::uint64_t local = 1;
  };

  Task<void> wait(CoreCtx& c, Sense& s) {
    const std::uint64_t my_sense = s.local;
    s.local ^= 1;

    // Combine upward: the last arrival at each node carries the signal up.
    int idx = c.id();
    for (int lvl = 0; lvl < static_cast<int>(level_width_.size()); ++lvl) {
      Node& nd = node(lvl, idx / kFanIn);
      const auto before = co_await c.rmw(
          &nd.count, [](std::uint64_t v) -> std::uint64_t { return v + 1; });
      if (before + 1 < nd.quota) break;  // not last: go spin on the sense
      co_await c.write<std::uint64_t>(&nd.count, 0);  // reset for next use
      idx /= kFanIn;
      if (lvl + 1 == static_cast<int>(level_width_.size())) {
        // Root: everyone has arrived; flip the global sense (the broadcast).
        co_await c.write<std::uint64_t>(sense_, my_sense);
        co_return;
      }
    }
    while (co_await c.read(sense_) != my_sense)
      co_await c.wait_for_change(sense_);
  }

 private:
  struct Node {
    alignas(64) std::uint64_t count = 0;
    std::uint64_t quota = 0;
  };
  static_assert(sizeof(Node) == 64, "one counter per line");
  Node& node(int lvl, int i) {
    return nodes_[static_cast<std::size_t>(level_begin_[static_cast<std::size_t>(lvl)] + i)];
  }

  std::span<Node> nodes_;
  std::vector<int> level_begin_;
  std::vector<int> level_width_;
  std::uint64_t* sense_;
};

}  // namespace atacsim::core
