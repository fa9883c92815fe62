#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "common/rng.hpp"
#include "sim/event_queue.hpp"

namespace atacsim {
namespace {

/// Handler that appends its argument to the std::vector<int> at `log`.
void log_arg(void* log, std::uint64_t arg) {
  static_cast<std::vector<int>*>(log)->push_back(static_cast<int>(arg));
}
/// A second handler on the same log, to tell records of two handlers apart.
void log_arg_plus_100(void* log, std::uint64_t arg) {
  static_cast<std::vector<int>*>(log)->push_back(100 + static_cast<int>(arg));
}

/// Test-local trampoline: schedules a call of the closure `fn`, which must
/// outlive the run, through a record that points at it.
void schedule_call(EventQueue& q, Cycle t, const std::function<void()>& fn) {
  q.schedule(
      t,
      [](void* f, std::uint64_t) {
        (*static_cast<const std::function<void()>*>(f))();
      },
      const_cast<std::function<void()>*>(&fn), 0);
}

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(10, log_arg, &order, 2);
  q.schedule(5, log_arg, &order, 1);
  q.schedule(20, log_arg, &order, 3);
  EXPECT_TRUE(q.run());
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 20u);
}

TEST(EventQueue, TiesBreakInScheduleOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i)
    q.schedule(7, log_arg, &order, static_cast<std::uint64_t>(i));
  q.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, HandlersMayScheduleMore) {
  EventQueue q;
  int hits = 0;
  std::function<void()> chain = [&] {
    if (++hits < 10) schedule_call(q, q.now() + 3, chain);
  };
  schedule_call(q, 0, chain);
  q.run();
  EXPECT_EQ(hits, 10);
  EXPECT_EQ(q.now(), 27u);
}

TEST(EventQueue, PastSchedulesClampToNow) {
  EventQueue q;
  Cycle seen = 0;
  const std::function<void()> see = [&] { seen = q.now(); };
  const std::function<void()> late = [&] {
    schedule_call(q, 5, see);  // "in the past"
  };
  schedule_call(q, 100, late);
  q.run();
  EXPECT_EQ(seen, 100u);
}

TEST(EventQueue, MaxCycleSafetyStop) {
  EventQueue q;
  std::function<void()> forever = [&] {
    schedule_call(q, q.now() + 1, forever);
  };
  schedule_call(q, 0, forever);
  EXPECT_FALSE(q.run(1000));
}

TEST(EventQueue, SafetyStopAdvancesClockToLimit) {
  // Regression: run() used to leave now() at the last *executed* event on a
  // safety stop, so callers computing elapsed time from now() under-counted
  // whenever event spacing didn't divide the limit.
  EventQueue q;
  std::function<void()> forever = [&] {
    schedule_call(q, q.now() + 7, forever);
  };
  schedule_call(q, 0, forever);
  EXPECT_FALSE(q.run(1000));  // last executed event lands at 994
  EXPECT_EQ(q.now(), 1000u);
}

TEST(EventQueue, RecordsOfDifferentHandlersTieInScheduleOrder) {
  // The sequence number orders records within a cycle whatever their
  // handler: nothing groups or orders them by function.
  EventQueue q;
  std::vector<int> order;
  q.schedule(9, log_arg, &order, 9);
  for (int i = 0; i < 6; ++i)
    q.schedule(4, i % 2 ? log_arg_plus_100 : log_arg, &order,
               static_cast<std::uint64_t>(i));
  q.schedule(2, log_arg_plus_100, &order, 2);
  q.run();
  EXPECT_EQ(order, (std::vector<int>{102, 0, 101, 2, 103, 4, 105, 9}));
}

TEST(EventQueue, HandlerSchedulingAtNowRunsAfterQueuedEvents) {
  // An event a handler schedules for the current cycle gets a later
  // sequence number than every event already queued for that cycle.
  EventQueue q;
  std::vector<int> order;
  const std::function<void()> first = [&] {
    order.push_back(1);
    q.schedule(q.now(), log_arg, &order, 4);
  };
  schedule_call(q, 5, first);
  q.schedule(5, log_arg, &order, 2);
  q.schedule(5, log_arg, &order, 3);
  q.schedule(6, log_arg, &order, 5);
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
  EXPECT_EQ(q.now(), 6u);
}

TEST(EventQueue, DispatchedCountsEachRecordOnce) {
  EventQueue q;
  std::vector<int> order;
  int spawned = 0;
  const std::function<void()> spawn = [&] {
    ++spawned;
    q.schedule(q.now() + 2, log_arg, &order, 0);
    q.schedule(0, log_arg, &order, 1);  // clamped to now(), still one record
  };
  for (int i = 0; i < 3; ++i) schedule_call(q, 10 * i, spawn);
  q.schedule(15, log_arg, &order, 2);
  EXPECT_EQ(q.dispatched(), 0u);
  // Stop before cycle 20: the spawns at 0 and 10, their four records and
  // the one at 15 have run.
  EXPECT_TRUE(q.run(kNeverCycle, 20));
  EXPECT_EQ(q.dispatched(), 7u);
  EXPECT_TRUE(q.run());
  EXPECT_EQ(spawned, 3);
  EXPECT_EQ(order.size(), 7u);
  EXPECT_EQ(q.dispatched(), 10u);  // 3 spawns + 6 records + 1
  EXPECT_TRUE(q.run());            // an empty queue dispatches nothing
  EXPECT_EQ(q.dispatched(), 10u);
}

TEST(EventQueue, OverflowEventRunsBeforeALaterDirectScheduleAtItsCycle) {
  // The event for cycle `far` is scheduled while `far` lies beyond the ring
  // and waits in the overflow heap; the one scheduled at cycle 20 lands in
  // the ring directly. Schedule order still decides: the first runs first.
  EventQueue q;
  std::vector<int> order;
  const Cycle far = EventQueue::kRingCycles + 10;
  q.schedule(far, log_arg, &order, 1);
  const std::function<void()> near = [&] {
    q.schedule(far, log_arg, &order, 2);
    q.schedule(far - 1, log_arg, &order, 0);
  };
  schedule_call(q, 20, near);
  EXPECT_TRUE(q.run());
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(q.now(), far);
  EXPECT_EQ(q.overflowed(), 1u);
  EXPECT_EQ(q.peak_pending(), 3u);
}

TEST(EventQueue, RingBoundaryAndEmptyRingJumps) {
  // Deltas one short of, at and one past the ring's reach, then a jump far
  // past it with the ring empty: each runs at its own cycle, in order.
  EventQueue q;
  std::vector<int> order;
  const Cycle r = EventQueue::kRingCycles;
  q.schedule(r + 1, log_arg, &order, 3);
  q.schedule(r, log_arg, &order, 2);
  q.schedule(r - 1, log_arg, &order, 1);
  q.schedule(Cycle{1} << 30, log_arg, &order, 4);
  EXPECT_EQ(q.overflowed(), 3u);
  EXPECT_TRUE(q.run(kNeverCycle, r + 1));
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(q.now(), r);
  EXPECT_TRUE(q.run());
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(q.now(), Cycle{1} << 30);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, ReservedSlotRunsWhereItsEagerEventWould) {
  // A reserved sequence number filled later runs exactly where an event
  // scheduled at the moment of the reservation would have run.
  EventQueue q;
  std::vector<int> order;
  // At one cycle, slots reserved ahead of, between and behind three direct
  // schedules are filled afterwards, in another order.
  const std::uint64_t ahead = q.reserve(1);
  q.schedule(10, log_arg, &order, 1);
  const std::uint64_t between_1_3 = q.reserve(1);
  q.schedule(10, log_arg, &order, 3);
  const std::uint64_t between_3_5 = q.reserve(1);
  q.schedule(10, log_arg, &order, 5);
  const std::uint64_t behind = q.reserve(1);
  q.schedule_reserved(10, between_3_5, log_arg, &order, 4);
  q.schedule_reserved(10, behind, log_arg, &order, 6);
  q.schedule_reserved(10, ahead, log_arg, &order, 0);
  q.schedule_reserved(10, between_1_3, log_arg, &order, 2);
  // Past the ring: a reserved slot goes through the overflow heap and still
  // runs ahead of a direct schedule made after the reservation.
  const Cycle far = EventQueue::kRingCycles + 50;
  const std::uint64_t far_slot = q.reserve(1);
  q.schedule(far, log_arg, &order, 11);
  q.schedule_reserved(far, far_slot, log_arg, &order, 10);
  EXPECT_EQ(q.overflowed(), 2u);
  // At now(), behind the running event: the event at cycle 20 reserves a
  // slot at 20, schedules 9 at 20 and then fills the slot, which runs
  // ahead of 9 although it was placed later.
  const std::function<void()> at_now = [&] {
    order.push_back(7);
    const std::uint64_t slot = q.reserve(1);
    // The running event holds the slot just before it.
    EXPECT_FALSE(q.passed(q.now(), slot - 1));
    EXPECT_FALSE(q.ahead(q.now(), slot - 1));
    EXPECT_TRUE(q.ahead(q.now(), slot));
    q.schedule(q.now(), log_arg, &order, 9);
    q.schedule_reserved(q.now(), slot, log_arg, &order, 8);
  };
  schedule_call(q, 20, at_now);
  EXPECT_TRUE(q.run());
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}));
  EXPECT_EQ(q.now(), far);
  EXPECT_EQ(q.dispatched(), 12u);
}

TEST(EventQueue, PassedAndAheadFollowThePositionOfTheRun) {
  EventQueue q;
  std::vector<int> order;
  // Before the first dispatch every slot is ahead, the first one at cycle 0
  // included.
  const std::uint64_t early = q.reserve(1);
  EXPECT_TRUE(q.ahead(0, early));
  EXPECT_FALSE(q.passed(0, early));

  // Inside a handler: its own slot is neither passed nor ahead; at its
  // cycle the slots before it have passed and those after it are ahead.
  const std::uint64_t running = early + 1;  // the number scheduled next
  const std::function<void()> check = [&] {
    EXPECT_EQ(q.now(), 10u);
    EXPECT_FALSE(q.passed(10, running));
    EXPECT_FALSE(q.ahead(10, running));
    EXPECT_TRUE(q.passed(10, early));
    EXPECT_TRUE(q.ahead(10, running + 1));
    EXPECT_TRUE(q.passed(9, running + 1));
    EXPECT_TRUE(q.ahead(11, early));
    order.push_back(0);
  };
  schedule_call(q, 10, check);
  q.schedule(10, log_arg, &order, 1);
  const std::uint64_t after_drain = q.reserve(1);

  // Between events, after a drain: the last slot run has passed, and a slot
  // after it at its cycle is still ahead and may be filled.
  EXPECT_TRUE(q.run());
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  EXPECT_TRUE(q.passed(10, after_drain - 1));
  EXPECT_FALSE(q.ahead(10, after_drain - 1));
  EXPECT_TRUE(q.ahead(10, after_drain));
  EXPECT_FALSE(q.passed(10, after_drain));
  q.schedule_reserved(10, after_drain, log_arg, &order, 2);
  EXPECT_TRUE(q.run());
  EXPECT_EQ(q.now(), 10u);

  // After a limit stop: every slot at or before now() has passed, reserved
  // before the stop or not, and a slot reserved after the stop is ahead.
  const std::uint64_t before_stop = q.reserve(1);
  q.schedule(20, log_arg, &order, 4);
  EXPECT_FALSE(q.run(15));
  EXPECT_EQ(q.now(), 15u);
  EXPECT_TRUE(q.passed(15, before_stop));
  EXPECT_FALSE(q.ahead(15, before_stop));
  EXPECT_TRUE(q.passed(14, ~std::uint64_t{0}));
  const std::uint64_t after_stop = q.reserve(1);
  EXPECT_TRUE(q.ahead(15, after_stop));
  EXPECT_FALSE(q.passed(15, after_stop));
  EXPECT_TRUE(q.ahead(16, before_stop));
  q.schedule_reserved(15, after_stop, log_arg, &order, 3);
  EXPECT_TRUE(q.run());
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(q.now(), 20u);
}

// ------------------------------------------------ differential against a heap

/// The engine the calendar ring replaced: one binary heap ordered by
/// (cycle, schedule order), with the same clamping and stops.
class HeapQueue {
 public:
  void schedule(Cycle t, EventQueue::Fn fn, void* obj, std::uint64_t arg) {
    if (t < now_) t = now_;
    heap_.push(Rec{t, seq_++, fn, obj, arg});
  }
  std::uint64_t reserve(std::uint64_t n) {
    const std::uint64_t first = seq_;
    seq_ += n;
    return first;
  }
  void schedule_reserved(Cycle t, std::uint64_t seq, EventQueue::Fn fn,
                         void* obj, std::uint64_t arg) {
    heap_.push(Rec{t, seq, fn, obj, arg});
  }
  /// True while the slot (t, seq) lies after the position of the run: at
  /// now(), every slot before the first dispatch, the slots reserved since
  /// a cycle-limit stop, or else those after the last event dispatched.
  bool ahead(Cycle t, std::uint64_t seq) const {
    if (t != now_) return t > now_;
    if (stopped_) return seq >= stop_seq_;
    return dispatched_ == 0 || seq > last_seq_;
  }
  Cycle now() const { return now_; }
  bool empty() const { return heap_.empty(); }
  std::uint64_t dispatched() const { return dispatched_; }
  bool run(Cycle max_cycles = kNeverCycle, Cycle stop_before = kNeverCycle) {
    while (!heap_.empty()) {
      const Rec r = heap_.top();
      if (r.t > max_cycles) {
        now_ = max_cycles;
        stopped_ = true;
        stop_seq_ = seq_;
        return false;
      }
      if (r.t >= stop_before) return true;
      heap_.pop();
      now_ = r.t;
      stopped_ = false;
      last_seq_ = r.seq;
      ++dispatched_;
      r.fn(r.obj, r.arg);
    }
    return true;
  }

 private:
  struct Rec {
    Cycle t;
    std::uint64_t seq;
    EventQueue::Fn fn;
    void* obj;
    std::uint64_t arg;
    bool operator>(const Rec& o) const {
      return t != o.t ? t > o.t : seq > o.seq;
    }
  };
  std::priority_queue<Rec, std::vector<Rec>, std::greater<>> heap_;
  Cycle now_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t last_seq_ = 0;  ///< of the last event dispatched
  bool stopped_ = false;        ///< by the cycle limit, since that event
  std::uint64_t stop_seq_ = 0;  ///< seq_ at the stop
  std::uint64_t dispatched_ = 0;
};

/// One seeded stream of schedules, handlers and stops on a queue of type Q.
/// `log` records every dispatch (id, cycle) and the outcome of every run
/// call, so two queues that agree on the order of every event and stop
/// leave equal logs. With `reserved`, some schedules instead reserve a
/// slot at a cycle, and later handlers fill slots that have not passed.
template <class Q>
struct Stream {
  static constexpr std::uint64_t kBudget = 3000;  // events per stream
  static constexpr int kMaxRounds = 400;

  /// A reserved slot not yet filled.
  struct Slot {
    Cycle t;
    std::uint64_t seq;
  };

  Q q;
  Xoshiro256 rng;
  bool reserved;
  std::uint64_t next_id = 0;
  std::vector<std::uint64_t> log;
  std::vector<Slot> slots;
  std::uint64_t filled = 0;         ///< reserved slots filled
  std::uint64_t filled_at_now = 0;  ///< of them, at now() behind the running event

  explicit Stream(std::uint64_t seed, bool with_reserved = false)
      : rng(seed), reserved(with_reserved) {}

  /// A cycle relative to now(): ties, near, around the ring's reach, far
  /// past it, or in the past (clamped to now()).
  Cycle pick_cycle() {
    const Cycle now = q.now();
    const Cycle r = EventQueue::kRingCycles;
    switch (rng.next_below(8)) {
      case 0: return now;
      case 1: return now + rng.next_below(4);
      case 2: return now + rng.next_below(64);
      case 3: return now + r - 1 + rng.next_below(3);
      case 4: return now + (Cycle{1} << 20) + rng.next_below(Cycle{1} << 20);
      case 5: return now + rng.next_below(3 * r);
      case 6: {
        const Cycle back = rng.next_below(100);
        return now > back ? now - back : 0;
      }
      default: return now + rng.next_below(16);
    }
  }

  void add() {
    if (next_id >= kBudget) return;
    if (!reserved) {
      q.schedule(pick_cycle(), fire, this, next_id++);
      return;
    }
    switch (rng.next_below(4)) {
      case 0: {  // reserve a run of slots at cycles not in the past
        const Cycle now = q.now();
        const std::uint64_t n = 1 + rng.next_below(3);
        std::uint64_t seq = q.reserve(n);
        for (std::uint64_t i = 0; i < n; ++i)
          slots.push_back({std::max(pick_cycle(), now), seq++});
        break;
      }
      case 1: {  // fill a slot that is still ahead of the running event
        if (slots.empty()) break;
        const std::size_t i = rng.next_below(slots.size());
        const Slot s = slots[i];
        slots[i] = slots.back();
        slots.pop_back();
        if (q.ahead(s.t, s.seq)) {
          ++filled;
          filled_at_now += s.t == q.now();
          q.schedule_reserved(s.t, s.seq, fire, this, next_id++);
        }
        break;
      }
      default:
        q.schedule(pick_cycle(), fire, this, next_id++);
    }
  }

  /// Handler: logs itself, then schedules up to two more events.
  static void fire(void* self, std::uint64_t id) {
    auto& s = *static_cast<Stream*>(self);
    s.log.push_back(id);
    s.log.push_back(s.q.now());
    for (auto n = s.rng.next_below(3); n > 0; --n) s.add();
  }

  void play() {
    for (int i = 0; i < 50; ++i) add();
    for (int round = 0; round < kMaxRounds; ++round) {
      for (auto n = rng.next_below(4); n > 0; --n) add();
      const Cycle now = q.now();
      bool ok;
      switch (rng.next_below(4)) {
        case 0: ok = q.run(); break;
        case 1: ok = q.run(kNeverCycle, now + rng.next_below(5000)); break;
        case 2: ok = q.run(now + rng.next_below(5000)); break;
        default:
          ok = q.run(now + rng.next_below(3000), now + rng.next_below(3000));
      }
      log.insert(log.end(), {~std::uint64_t{0}, ok, q.now(), q.empty(),
                             q.dispatched()});
      if (q.empty() && next_id >= kBudget) return;
    }
    log.push_back(q.run());
    log.push_back(q.now());
  }
};

TEST(EventQueueDifferential, MatchesTheBinaryHeapOnSeededStreams) {
  std::uint64_t overflowed = 0;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    Stream<HeapQueue> want(seed);
    want.play();
    Stream<EventQueue> got(seed);
    got.play();
    ASSERT_EQ(got.next_id, want.next_id);
    ASSERT_EQ(got.log.size(), want.log.size());
    for (std::size_t i = 0; i < want.log.size(); ++i)
      ASSERT_EQ(got.log[i], want.log[i]) << "log entry " << i;
    EXPECT_TRUE(got.q.empty());
    overflowed += got.q.overflowed();
  }
  EXPECT_GT(overflowed, 0u);  // the streams reached the overflow heap
}

TEST(EventQueueDifferential, ReservedInsertsMatchTheBinaryHeap) {
  // The same streams with reservations: slots filled later, at now() behind
  // the running event, ahead of and behind direct schedules, and past the
  // ring, against a heap ordered by (cycle, sequence number).
  std::uint64_t overflowed = 0, filled = 0, filled_at_now = 0;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    Stream<HeapQueue> want(seed, /*with_reserved=*/true);
    want.play();
    Stream<EventQueue> got(seed, /*with_reserved=*/true);
    got.play();
    ASSERT_EQ(got.next_id, want.next_id);
    ASSERT_GT(got.next_id, 100u);
    ASSERT_EQ(got.log.size(), want.log.size());
    for (std::size_t i = 0; i < want.log.size(); ++i)
      ASSERT_EQ(got.log[i], want.log[i]) << "log entry " << i;
    EXPECT_TRUE(got.q.empty());
    overflowed += got.q.overflowed();
    filled += got.filled;
    filled_at_now += got.filled_at_now;
  }
  EXPECT_GT(overflowed, 0u);
  EXPECT_GT(filled, 500u);
  EXPECT_GT(filled_at_now, 0u);
}

}  // namespace
}  // namespace atacsim
