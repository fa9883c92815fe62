// HolderIndex against a reference map: random adds and removes over a few
// hundred lines drive the table through growth and through deletions in the
// middle of probe runs.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/rng.hpp"
#include "sim/holder_index.hpp"

namespace atacsim::sim {
namespace {

TEST(HolderIndex, MatchesReferenceUnderRandomAddsAndRemoves) {
  constexpr int kCores = 130;  // three words per set, the last one partial
  HolderIndex idx(kCores);
  ASSERT_EQ(idx.words(), 3u);
  std::map<Addr, std::set<CoreId>> ref;
  Xoshiro256 rng(7);
  for (int step = 0; step < 200'000; ++step) {
    const Addr line = 64 * (1 + rng.next_below(600));
    const auto c = static_cast<CoreId>(rng.next_below(kCores));
    if (rng.next_below(2) == 0) {
      idx.add(line, c);
      ref[line].insert(c);
    } else {
      idx.remove(line, c);
      auto it = ref.find(line);
      if (it != ref.end() && it->second.erase(c) && it->second.empty())
        ref.erase(it);
    }
    if (step % 1000 != 0) continue;
    for (Addr l = 64; l <= 64 * 600; l += 64) {
      const auto it = ref.find(l);
      const std::uint64_t* bits = idx.find(l);
      ASSERT_EQ(bits != nullptr, it != ref.end()) << "line " << l;
      if (!bits) continue;
      for (CoreId k = 0; k < kCores; ++k)
        ASSERT_EQ(has_core(bits, k), it->second.count(k) == 1)
            << "line " << l << " core " << k;
    }
  }
}

TEST(HolderIndex, LineIsReleasedWithItsLastHolder) {
  HolderIndex idx(16);
  idx.add(0x1000, 3);
  idx.add(0x1000, 5);
  idx.remove(0x1000, 3);
  EXPECT_TRUE(idx.holds(0x1000, 5));
  EXPECT_FALSE(idx.holds(0x1000, 3));
  idx.remove(0x1000, 5);
  EXPECT_EQ(idx.find(0x1000), nullptr);
  idx.remove(0x2000, 1);  // a line nobody holds
  EXPECT_EQ(idx.find(0x2000), nullptr);
  // A released row comes back empty.
  idx.add(0x3000, 2);
  const std::uint64_t* bits = idx.find(0x3000);
  ASSERT_NE(bits, nullptr);
  EXPECT_EQ(bits[0], std::uint64_t{1} << 2);
}

}  // namespace
}  // namespace atacsim::sim
