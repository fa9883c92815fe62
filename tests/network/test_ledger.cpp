#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.hpp"
#include "network/ledger.hpp"

namespace atacsim::net {
namespace {

TEST(Channel, IdleChannelServesImmediately) {
  ChannelArray c(1);
  EXPECT_EQ(c.acquire(0, 10, 3), 10u);
  EXPECT_EQ(c.busy_until(0), 13u);
}

TEST(Channel, BackToBackRequestsQueue) {
  ChannelArray c(1);
  EXPECT_EQ(c.acquire(0, 0, 5), 0u);
  EXPECT_EQ(c.acquire(0, 0, 5), 5u);   // waits for the first
  EXPECT_EQ(c.acquire(0, 20, 5), 20u); // idle gap, serves at arrival
  EXPECT_EQ(c.busy_cycles(), 15u);
}

// Two clusters of two StarNets each, keyed by sender the way AtacModel keys
// them: slot `cluster * k + src % k`.
TEST(ChannelGroup, ParallelChannelsAbsorbBursts) {
  constexpr std::size_t k = 2;
  ChannelArray g(2 * k);
  const auto keyed = [&](std::size_t cluster, std::size_t src) {
    return cluster * k + src % k;
  };
  EXPECT_EQ(g.acquire(keyed(1, 0), 0, 10), 0u);
  EXPECT_EQ(g.acquire(keyed(1, 1), 0, 10), 0u);   // second channel
  EXPECT_EQ(g.acquire(keyed(1, 2), 0, 10), 10u);  // src 2 shares channel 0
  EXPECT_EQ(g.acquire(keyed(0, 2), 0, 10), 0u);   // other cluster is idle
  EXPECT_EQ(g.busy_cycles(), 40u);
  EXPECT_EQ(g.size(), 2 * k);
}

TEST(ChannelArray, IndependentChannels) {
  ChannelArray a(4);
  EXPECT_EQ(a.acquire(0, 0, 5), 0u);
  EXPECT_EQ(a.acquire(1, 0, 5), 0u);
  EXPECT_EQ(a.acquire(0, 0, 5), 5u);
  EXPECT_EQ(a.busy_cycles(), 15u);
  // A caller walking raw horizons adds its busy time itself.
  a.horizons()[3] = 7;
  a.add_busy(2);
  EXPECT_EQ(a.acquire(3, 0, 1), 7u);
  EXPECT_EQ(a.busy_cycles(), 18u);
}

TEST(Channel, SaturationEmergesFromHorizon) {
  // Offered load beyond capacity makes the start times drift ahead of the
  // arrival clock without bound — the flow-level model's saturation signal.
  ChannelArray c(1);
  Cycle last = 0;
  for (Cycle t = 0; t < 100; ++t) last = c.acquire(0, t, 2);  // 2x overload
  EXPECT_GT(last, 150u);
}

// The per-channel ledger the group ledger replaced: each channel keeps its
// own horizon and busy count.
struct ReferenceChannel {
  Cycle busy_until = 0;
  Cycle busy_cycles = 0;
  Cycle acquire(Cycle ready, Cycle duration) {
    const Cycle start = std::max(ready, busy_until);
    busy_until = start + duration;
    busy_cycles += duration;
    return start;
  }
};

TEST(ChannelArray, MatchesPerChannelReference) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    Xoshiro256 rng(seed);
    const std::size_t n = 1 + rng.next_below(64);
    ChannelArray got(n);
    std::vector<ReferenceChannel> want(n);
    Cycle t = 0;
    for (int i = 0; i < 5000; ++i) {
      t += rng.next_below(3);
      const std::size_t slot = rng.next_below(n);
      const Cycle ready = t + rng.next_below(8);
      const Cycle duration = rng.next_below(20);
      ASSERT_EQ(got.acquire(slot, ready, duration),
                want[slot].acquire(ready, duration))
          << "call " << i;
    }
    Cycle total = 0;
    for (std::size_t s = 0; s < n; ++s) {
      EXPECT_EQ(got.busy_until(s), want[s].busy_until) << "slot " << s;
      total += want[s].busy_cycles;
    }
    EXPECT_EQ(got.busy_cycles(), total);
    EXPECT_EQ(got.size(), n);
  }
}

}  // namespace
}  // namespace atacsim::net
