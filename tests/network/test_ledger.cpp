#include <gtest/gtest.h>

#include "network/ledger.hpp"

namespace atacsim::net {
namespace {

TEST(Channel, IdleChannelServesImmediately) {
  Channel c;
  EXPECT_EQ(c.acquire(10, 3), 10u);
  EXPECT_EQ(c.busy_until(), 13u);
}

TEST(Channel, BackToBackRequestsQueue) {
  Channel c;
  EXPECT_EQ(c.acquire(0, 5), 0u);
  EXPECT_EQ(c.acquire(0, 5), 5u);   // waits for the first
  EXPECT_EQ(c.acquire(20, 5), 20u); // idle gap, serves at arrival
  EXPECT_EQ(c.busy_cycles(), 15u);
}

TEST(ChannelGroup, ParallelChannelsAbsorbBursts) {
  ChannelGroup g(2);
  EXPECT_EQ(g.acquire_keyed(0, 0, 10), 0u);
  EXPECT_EQ(g.acquire_keyed(1, 0, 10), 0u);   // second channel
  EXPECT_EQ(g.acquire_keyed(2, 0, 10), 10u);  // key 2 shares channel 0
  EXPECT_EQ(g.busy_cycles(), 30u);
}

TEST(ChannelArray, IndependentChannels) {
  ChannelArray a(4);
  EXPECT_EQ(a[0].acquire(0, 5), 0u);
  EXPECT_EQ(a[1].acquire(0, 5), 0u);
  EXPECT_EQ(a[0].acquire(0, 5), 5u);
  EXPECT_EQ(a.total_busy_cycles(), 15u);
}

TEST(Channel, SaturationEmergesFromHorizon) {
  // Offered load beyond capacity makes the start times drift ahead of the
  // arrival clock without bound — the flow-level model's saturation signal.
  Channel c;
  Cycle last = 0;
  for (Cycle t = 0; t < 100; ++t) last = c.acquire(t, 2);  // 2x overload
  EXPECT_GT(last, 150u);
}

}  // namespace
}  // namespace atacsim::net
