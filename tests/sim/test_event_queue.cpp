#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <vector>

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

}  // namespace
}  // namespace atacsim
