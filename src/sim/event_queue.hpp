// Deterministic discrete-event engine.
//
// An event is a plain record: a cycle, a sequence number and a handler
// `fn(obj, arg)` given as a function pointer and its two arguments. The
// records are trivially copyable, so scheduling one never allocates (the
// pools grow to the run's peak and are then reused). Whatever an event needs
// beyond `obj` and `arg` lives with its owner: a coroutine frame
// (resume_coroutine), an awaiter, a cache controller's or the Machine's own
// tables.
//
// Events run in (cycle, sequence number) order, so a given program and seed
// always produce the same simulation — a property the tests rely on. A plain
// schedule takes the next sequence number, so events at equal cycles run in
// schedule order. reserve(n) hands out n sequence numbers without scheduling
// anything, and schedule_reserved later places an event at one of them: it
// runs exactly where an event scheduled at the moment of the reservation
// would have run. The Machine reserves one number per run of a broadcast's
// receivers and schedules only the runs some receiver acts on, plus the
// broadcast's last run, so the queue drains only once every run has passed
// and the clock only ever moves by dispatching an event.
//
// The queue alone says where the simulation stands in (cycle, sequence
// number) order, through passed() and ahead(). While a handler runs, its
// own slot is neither passed nor ahead; between events the last slot run
// has passed; after run(max) returns false every slot at or before now()
// has passed and a slot reserved after the stop is ahead; before the first
// dispatch every slot is ahead.
//
// The queue is a calendar ring (R. Brown, CACM 31(10), 1988) with one bucket
// per cycle. The ring's kRingCycles buckets cover the cycles
// [base_, base_ + kRingCycles), where base_ is the cycle of the last
// dispatched event. Records sit in one node pool, chained through an
// intrusive `next` index; a bitmap of non-empty buckets finds the next
// pending cycle in a few word scans. An event scheduled kRingCycles or more
// ahead of base_ goes to an overflow binary heap ordered by (cycle,
// sequence number).
//
// Ordering: every record carries its sequence number and every bucket is
// kept sorted by it. A plain schedule holds the largest number handed out
// yet, so it appends; a reserved one walks its bucket to its place.
// Overflow events move into their buckets, in heap order, each time base_
// advances and before any event at the new base runs; a bucket is empty
// when its cycle's overflow events move in, because nothing is placed in
// the ring for cycle t while base_ <= t - kRingCycles. Dispatching each
// bucket from its head is therefore the (cycle, sequence number) order of
// a single heap.
#pragma once

#include <array>
#include <bit>
#include <cassert>
#include <coroutine>
#include <cstddef>
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

  /// Cycles the ring covers ahead of the last dispatched event; an event
  /// scheduled this far ahead or more waits in the overflow heap.
  static constexpr Cycle kRingCycles = Cycle{1} << 12;

  /// `validate` arms the clock probe: every dispatch checks the clock never
  /// moves backwards (src/check).
  explicit EventQueue(bool validate = check::env_validation_enabled())
      : validate_(validate) {
    buckets_.fill(Bucket{kNil, kNil});
  }

  /// Events dispatched so far (unconditional counter; feeds the obs
  /// self-profile's events/sec).
  std::uint64_t dispatched() const { return dispatched_; }
  /// Events that were scheduled kRingCycles or more ahead and so went
  /// through the overflow heap (host-side; self-profile only).
  std::uint64_t overflowed() const { return overflowed_; }
  /// Most events ever pending at once (host-side; self-profile only).
  std::uint64_t peak_pending() const { return peak_pending_; }

  /// Runs fn(obj, arg) at cycle `t` (at now() if `t` is in the past), after
  /// every event already scheduled or reserved for that cycle.
  void schedule(Cycle t, Fn fn, void* obj, std::uint64_t arg) {
    if (t < now_) t = now_;    // never schedule into the past
    if (t < base_) t = base_;  // only after debug_set_now rewound the clock
    place<true>(t, seq_++, fn, obj, arg);
  }

  /// Hands out `n` consecutive sequence numbers, the first of which is
  /// returned, without scheduling anything.
  std::uint64_t reserve(std::uint64_t n) {
    const std::uint64_t first = seq_;
    seq_ += n;
    return first;
  }
  /// Runs fn(obj, arg) at cycle `t` in the place of sequence number `seq`,
  /// one that reserve() handed out: where an event scheduled for `t` at the
  /// moment of the reservation would run. The slot must be ahead().
  void schedule_reserved(Cycle t, std::uint64_t seq, Fn fn, void* obj,
                         std::uint64_t arg) {
    assert(seq < seq_ && ahead(t, seq));
    place<false>(t, seq, fn, obj, arg);
  }
  /// True once the slot (t, seq) lies before the simulation's position.
  bool passed(Cycle t, std::uint64_t seq) const {
    return t < now_ || (t == now_ && seq < lo_);
  }
  /// True while the slot (t, seq) lies after the simulation's position.
  bool ahead(Cycle t, std::uint64_t seq) const {
    return t > now_ || (t == now_ && seq >= hi_);
  }

  Cycle now() const { return now_; }
  bool empty() const { return pending_ == 0; }
  bool validation() const { return validate_; }

  /// Runs until the queue drains, `max_cycles` is crossed, or the next
  /// event is at or past `stop_before` (checked after the limit). Returns
  /// false on the cycle-limit safety stop — with `now()` advanced to
  /// `max_cycles`, so callers reading now() after a safety stop see the
  /// full elapsed window rather than the last executed event. Returns true
  /// otherwise; empty() then tells a drained queue from a stop before
  /// `stop_before`.
  bool run(Cycle max_cycles = kNeverCycle, Cycle stop_before = kNeverCycle) {
    while (pending_ != 0) {
      const Cycle t = next_cycle();
      if (t > max_cycles) {
        now_ = max_cycles;
        lo_ = hi_ = seq_;
        return false;
      }
      if (t >= stop_before) return true;
      dispatch(t);
    }
    return true;
  }

  /// Fault injection for the checker's mutation tests: rewinds (or advances)
  /// the clock without draining events, so the next dispatch trips the
  /// monotonicity probe. Never called outside tests.
  void debug_set_now(Cycle t) { now_ = t; }

 private:
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};
  static constexpr std::size_t kMask = kRingCycles - 1;
  static constexpr std::size_t kWords = kRingCycles / 64;

  /// A ring record; `next` chains a bucket, in sequence order, or the free
  /// list.
  struct Node {
    Fn fn;
    void* obj;
    std::uint64_t arg;
    std::uint64_t seq;
    std::uint32_t next;
  };
  struct Bucket {
    std::uint32_t head;
    std::uint32_t tail;
  };
  /// An overflow record: ordered by cycle, then by sequence number.
  struct Overflow {
    Cycle t;
    std::uint64_t seq;
    Fn fn;
    void* obj;
    std::uint64_t arg;
    bool operator>(const Overflow& o) const {
      return t != o.t ? t > o.t : seq > o.seq;
    }
  };
  static_assert(std::is_trivially_copyable_v<Node>);
  static_assert(std::is_trivially_copyable_v<Overflow>);

  /// Queues a record for cycle `t` (at or after base_) in its place;
  /// `kNewest` says no record holds a larger sequence number.
  template <bool kNewest>
  void place(Cycle t, std::uint64_t seq, Fn fn, void* obj, std::uint64_t arg) {
    if (++pending_ > peak_pending_) peak_pending_ = pending_;
    if (t - base_ < kRingCycles) {
      push_ring<kNewest>(t, seq, fn, obj, arg);
    } else {
      ++overflowed_;
      overflow_.push(Overflow{t, seq, fn, obj, arg});
    }
  }

  /// Inserts a record into the bucket of cycle `t` (within the ring) before
  /// the first record with a larger sequence number: it appends when
  /// `kNewest` holds, or when a reserved number still is the bucket's
  /// largest.
  template <bool kNewest>
  void push_ring(Cycle t, std::uint64_t seq, Fn fn, void* obj,
                 std::uint64_t arg) {
    std::uint32_t n = free_;
    if (n != kNil) {
      free_ = nodes_[n].next;
      nodes_[n] = Node{fn, obj, arg, seq, kNil};
    } else {
      n = static_cast<std::uint32_t>(nodes_.size());
      nodes_.push_back(Node{fn, obj, arg, seq, kNil});
    }
    const std::size_t b = t & kMask;
    Bucket& bk = buckets_[b];
    if (bk.head == kNil) {
      bk.head = bk.tail = n;
      occupied_[b >> 6] |= std::uint64_t{1} << (b & 63);
    } else if (kNewest || nodes_[bk.tail].seq < seq) {
      nodes_[bk.tail].next = n;
      bk.tail = n;
    } else if (seq < nodes_[bk.head].seq) {
      nodes_[n].next = bk.head;
      bk.head = n;
    } else {
      std::uint32_t prev = bk.head;
      while (nodes_[nodes_[prev].next].seq < seq) prev = nodes_[prev].next;
      nodes_[n].next = nodes_[prev].next;
      nodes_[prev].next = n;
    }
  }

  /// Cycle of the earliest pending event; the queue must not be empty.
  Cycle next_cycle() const {
    if (pending_ == overflow_.size()) return overflow_.top().t;  // ring empty
    // Scan the bitmap from base_'s bucket, wrapping once round the ring.
    const std::size_t first = base_ & kMask;
    std::size_t w = first >> 6;
    std::uint64_t bits = occupied_[w] & (~std::uint64_t{0} << (first & 63));
    while (bits == 0) {
      w = (w + 1) % kWords;
      bits = occupied_[w];
    }
    const std::size_t b = (w << 6) | static_cast<std::size_t>(
                                         std::countr_zero(bits));
    return base_ + ((b - first) & kMask);
  }

  /// Runs the oldest event of cycle `t`, the earliest pending cycle.
  void dispatch(Cycle t) {
    if (t != base_) {
      base_ = t;
      // Overflow events now inside the ring join their buckets before any
      // event at the new base runs.
      while (!overflow_.empty() && overflow_.top().t - base_ < kRingCycles) {
        const Overflow& o = overflow_.top();
        push_ring<true>(o.t, o.seq, o.fn, o.obj, o.arg);
        overflow_.pop();
      }
    }
    const std::size_t b = t & kMask;
    Bucket& bk = buckets_[b];
    const std::uint32_t n = bk.head;
    // Copied out before the node is freed, so the handler may schedule more.
    const Node e = nodes_[n];
    bk.head = e.next;
    if (bk.head == kNil) occupied_[b >> 6] &= ~(std::uint64_t{1} << (b & 63));
    nodes_[n].next = free_;
    free_ = n;
    --pending_;
    if (validate_ && t < now_)
      check::raise(check::Probe::kClock, "event_queue", now_, kInvalidCore,
                   "dispatch timestamp " + std::to_string(t) +
                       " behind clock " + std::to_string(now_));
    now_ = t;
    lo_ = e.seq;
    hi_ = e.seq + 1;
    ++dispatched_;
    e.fn(e.obj, e.arg);
    lo_ = hi_;
  }

  std::vector<Node> nodes_;
  std::uint32_t free_ = kNil;
  std::array<Bucket, kRingCycles> buckets_;
  std::array<std::uint64_t, kWords> occupied_{};
  std::priority_queue<Overflow, std::vector<Overflow>, std::greater<>>
      overflow_;
  Cycle base_ = 0;  ///< cycle of the last dispatched event
  Cycle now_ = 0;
  std::uint64_t seq_ = 0;  ///< the next sequence number to hand out
  /// At now(), the slots before lo_ have passed and those from hi_ on are
  /// ahead: the running slot's range while a handler runs, else empty.
  std::uint64_t lo_ = 0;
  std::uint64_t hi_ = 0;
  std::uint64_t pending_ = 0;
  std::uint64_t dispatched_ = 0;
  std::uint64_t overflowed_ = 0;
  std::uint64_t peak_pending_ = 0;
  const bool validate_;
};

/// Event handler that resumes the coroutine whose frame is `frame` (a
/// handle's address()). A null frame resumes nothing: the event still runs,
/// at its cycle, for callers that complete without a coroutine.
inline void resume_coroutine(void* frame, std::uint64_t) {
  if (frame) std::coroutine_handle<>::from_address(frame).resume();
}

}  // namespace atacsim
