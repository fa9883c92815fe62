// Deterministic discrete-event engine.
//
// Events at equal cycles run in schedule order (a monotone sequence number
// breaks ties), so a given program and seed always produce the same
// simulation — a property the tests rely on.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <stdexcept>
#include <utility>
#include <vector>

#include "check/invariant.hpp"
#include "common/types.hpp"

namespace atacsim {

class EventQueue {
 public:
  using Fn = std::function<void()>;

  /// Events dispatched so far (unconditional counter; feeds the obs
  /// self-profile's events/sec).
  std::uint64_t dispatched() const { return dispatched_; }

  void schedule(Cycle t, Fn fn) {
    if (t < now_) t = now_;  // never schedule into the past
    heap_.push(Item{t, seq_++, std::move(fn)});
  }

  Cycle now() const { return now_; }
  bool empty() const { return heap_.empty(); }

  /// When on, every dispatch asserts the clock never moves backwards
  /// (src/check clock probe). Defaults to the ATACSIM_VALIDATE env flag.
  void set_validation(bool on) { validate_ = on; }
  bool validation() const { return validate_; }

  /// Runs until the queue drains, `max_cycles` is crossed, or the next
  /// event is at or past `stop_before` (checked after the limit). Returns
  /// false on the cycle-limit safety stop — with `now()` advanced to
  /// `max_cycles`, so callers reading now() after a safety stop see the
  /// full elapsed window rather than the last executed event. Returns true
  /// otherwise; empty() then tells a drained queue from a stop before
  /// `stop_before`.
  bool run(Cycle max_cycles = kNeverCycle, Cycle stop_before = kNeverCycle) {
    while (!heap_.empty()) {
      const Item& top = heap_.top();
      if (top.t > max_cycles) {
        now_ = max_cycles;
        return false;
      }
      if (top.t >= stop_before) return true;
      dispatch(top);
    }
    return true;
  }

  /// Fault injection for the checker's mutation tests: rewinds (or advances)
  /// the clock without draining events, so the next dispatch trips the
  /// monotonicity probe. Never called outside tests.
  void debug_set_now(Cycle t) { now_ = t; }

 private:
  struct Item {
    Cycle t;
    std::uint64_t seq;
    Fn fn;
    bool operator>(const Item& o) const {
      return t != o.t ? t > o.t : seq > o.seq;
    }
  };

  void dispatch(const Item& top) {
    if (validate_ && top.t < now_)
      check::raise(check::Probe::kClock, "event_queue", now_, kInvalidCore,
                   "dispatch timestamp " + std::to_string(top.t) +
                       " behind clock " + std::to_string(now_));
    now_ = top.t;
    ++dispatched_;
    // Move out before pop so the handler may schedule more events.
    Fn fn = std::move(const_cast<Item&>(top).fn);
    heap_.pop();
    fn();
  }

  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap_;
  Cycle now_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t dispatched_ = 0;
  bool validate_ = check::env_validation_enabled();
};

}  // namespace atacsim
