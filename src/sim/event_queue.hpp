// Deterministic discrete-event engine.
//
// An event is a plain record: a cycle, a sequence number, and a handler
// `fn(obj, arg)` given as a function pointer and its two arguments. The
// records are trivially copyable, so scheduling one never allocates (the
// heap's array grows to the run's peak and is then reused). Whatever an
// event needs beyond `obj` and `arg` lives with its owner: a coroutine frame
// (resume_coroutine), an awaiter, a cache controller's or the Machine's own
// tables.
//
// Events at equal cycles run in schedule order (a monotone sequence number
// breaks ties), so a given program and seed always produce the same
// simulation — a property the tests rely on.
#pragma once

#include <coroutine>
#include <cstdint>
#include <queue>
#include <string>
#include <type_traits>
#include <vector>

#include "check/invariant.hpp"
#include "common/types.hpp"

namespace atacsim {

class EventQueue {
 public:
  /// An event's handler: called as fn(obj, arg) at the event's cycle.
  using Fn = void (*)(void* obj, std::uint64_t arg);

  /// Events dispatched so far (unconditional counter; feeds the obs
  /// self-profile's events/sec).
  std::uint64_t dispatched() const { return dispatched_; }

  /// Runs fn(obj, arg) at cycle `t` (at now() if `t` is in the past).
  void schedule(Cycle t, Fn fn, void* obj, std::uint64_t arg) {
    if (t < now_) t = now_;  // never schedule into the past
    heap_.push(Event{t, seq_++, fn, obj, arg});
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
      const Event& top = heap_.top();
      if (top.t > max_cycles) {
        now_ = max_cycles;
        return false;
      }
      if (top.t >= stop_before) return true;
      dispatch();
    }
    return true;
  }

  /// Fault injection for the checker's mutation tests: rewinds (or advances)
  /// the clock without draining events, so the next dispatch trips the
  /// monotonicity probe. Never called outside tests.
  void debug_set_now(Cycle t) { now_ = t; }

 private:
  struct Event {
    Cycle t;
    std::uint64_t seq;
    Fn fn;
    void* obj;
    std::uint64_t arg;
    bool operator>(const Event& o) const {
      return t != o.t ? t > o.t : seq > o.seq;
    }
  };
  static_assert(std::is_trivially_copyable_v<Event>);

  void dispatch() {
    // Copied out before pop so the handler may schedule more events.
    const Event e = heap_.top();
    if (validate_ && e.t < now_)
      check::raise(check::Probe::kClock, "event_queue", now_, kInvalidCore,
                   "dispatch timestamp " + std::to_string(e.t) +
                       " behind clock " + std::to_string(now_));
    now_ = e.t;
    ++dispatched_;
    heap_.pop();
    e.fn(e.obj, e.arg);
  }

  std::priority_queue<Event, std::vector<Event>, std::greater<>> heap_;
  Cycle now_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t dispatched_ = 0;
  bool validate_ = check::env_validation_enabled();
};

/// Event handler that resumes the coroutine whose frame is `frame` (a
/// handle's address()). A null frame resumes nothing: the event still runs,
/// at its cycle, for callers that complete without a coroutine.
inline void resume_coroutine(void* frame, std::uint64_t) {
  if (frame) std::coroutine_handle<>::from_address(frame).resume();
}

}  // namespace atacsim
