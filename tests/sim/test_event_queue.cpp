#include <gtest/gtest.h>

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

// ------------------------------------------------ differential against a heap

/// The engine the calendar ring replaced: one binary heap ordered by
/// (cycle, schedule order), with the same clamping and stops.
class HeapQueue {
 public:
  void schedule(Cycle t, EventQueue::Fn fn, void* obj, std::uint64_t arg) {
    if (t < now_) t = now_;
    heap_.push(Rec{t, seq_++, fn, obj, arg});
  }
  Cycle now() const { return now_; }
  bool empty() const { return heap_.empty(); }
  std::uint64_t dispatched() const { return dispatched_; }
  bool run(Cycle max_cycles = kNeverCycle, Cycle stop_before = kNeverCycle) {
    while (!heap_.empty()) {
      const Rec r = heap_.top();
      if (r.t > max_cycles) {
        now_ = max_cycles;
        return false;
      }
      if (r.t >= stop_before) return true;
      heap_.pop();
      now_ = r.t;
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
  std::uint64_t dispatched_ = 0;
};

/// One seeded stream of schedules, handlers and stops on a queue of type Q.
/// `log` records every dispatch (id, cycle) and the outcome of every run
/// call, so two queues that agree on the order of every event and stop
/// leave equal logs.
template <class Q>
struct Stream {
  static constexpr std::uint64_t kBudget = 3000;  // events per stream
  static constexpr int kMaxRounds = 400;

  Q q;
  Xoshiro256 rng;
  std::uint64_t next_id = 0;
  std::vector<std::uint64_t> log;

  explicit Stream(std::uint64_t seed) : rng(seed) {}

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
    if (next_id < kBudget) q.schedule(pick_cycle(), fire, this, next_id++);
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

}  // namespace
}  // namespace atacsim
