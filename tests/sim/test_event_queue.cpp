#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "sim/event_queue.hpp"

namespace atacsim {
namespace {

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(10, [&] { order.push_back(2); });
  q.schedule(5, [&] { order.push_back(1); });
  q.schedule(20, [&] { order.push_back(3); });
  EXPECT_TRUE(q.run());
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 20u);
}

TEST(EventQueue, TiesBreakInScheduleOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) q.schedule(7, [&, i] { order.push_back(i); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, HandlersMayScheduleMore) {
  EventQueue q;
  int hits = 0;
  std::function<void()> chain = [&] {
    if (++hits < 10) q.schedule(q.now() + 3, chain);
  };
  q.schedule(0, chain);
  q.run();
  EXPECT_EQ(hits, 10);
  EXPECT_EQ(q.now(), 27u);
}

TEST(EventQueue, PastSchedulesClampToNow) {
  EventQueue q;
  Cycle seen = 0;
  q.schedule(100, [&] {
    q.schedule(5, [&] { seen = q.now(); });  // "in the past"
  });
  q.run();
  EXPECT_EQ(seen, 100u);
}

TEST(EventQueue, MaxCycleSafetyStop) {
  EventQueue q;
  std::function<void()> forever = [&] { q.schedule(q.now() + 1, forever); };
  q.schedule(0, forever);
  EXPECT_FALSE(q.run(1000));
}

TEST(EventQueue, SafetyStopAdvancesClockToLimit) {
  // Regression: run() used to leave now() at the last *executed* event on a
  // safety stop, so callers computing elapsed time from now() under-counted
  // whenever event spacing didn't divide the limit.
  EventQueue q;
  std::function<void()> forever = [&] { q.schedule(q.now() + 7, forever); };
  q.schedule(0, forever);
  EXPECT_FALSE(q.run(1000));  // last executed event lands at 994
  EXPECT_EQ(q.now(), 1000u);
}

}  // namespace
}  // namespace atacsim
