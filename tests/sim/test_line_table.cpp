// mem::LineTable against a reference map: random inserts, detaches,
// re-attaches onto the same row and releases over a few hundred lines drive
// the table through several growths and through deletions in the middle of
// probe runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "memory/line_table.hpp"

namespace atacsim::mem {
namespace {

struct Value {
  std::uint64_t token = 0;
  std::vector<int> list;
  void clear() {
    token = 0;
    clear_for_reuse(list);
  }
};

TEST(LineTable, MatchesReferenceUnderRandomInsertsDetachesAndReleases) {
  constexpr std::uint64_t kLines = 400;
  LineTable<Value> t;
  std::map<Addr, std::uint32_t> open;          // line -> row
  std::map<std::uint32_t, Addr> detached;      // row -> the line it left
  std::map<std::uint32_t, std::uint64_t> tok;  // row -> token it holds
  std::size_t peak = 0;
  Xoshiro256 rng(11);
  std::uint64_t next_token = 1;
  for (int step = 0; step < 20'000; ++step) {
    const std::uint64_t op = rng.next_below(10);
    if (op < 5) {
      const Addr line = 64 * (1 + rng.next_below(kLines));
      if (open.count(line)) continue;
      const std::uint32_t r = t.insert(line);
      ASSERT_EQ(detached.count(r), 0u) << "step " << step;
      // A new or released row comes back cleared.
      ASSERT_EQ(t[r].token, 0u) << "step " << step << " row " << r;
      ASSERT_TRUE(t[r].list.empty()) << "step " << step << " row " << r;
      t[r].token = next_token;
      t[r].list.assign(1 + next_token % 7, 1);
      tok[r] = next_token++;
      open[line] = r;
    } else if (op < 8) {
      if (open.empty()) continue;
      auto it = open.begin();
      std::advance(it, static_cast<long>(rng.next_below(open.size())));
      const std::uint32_t r = t.detach(it->first);
      ASSERT_EQ(r, it->second) << "step " << step;
      detached[r] = it->first;
      open.erase(it);
    } else {
      if (detached.empty()) continue;
      auto it = detached.begin();
      std::advance(it, static_cast<long>(rng.next_below(detached.size())));
      const auto [r, line] = *it;
      // A detached row keeps its value until it is released.
      ASSERT_EQ(t[r].token, tok[r]) << "step " << step << " row " << r;
      ASSERT_EQ(t[r].list.size(), 1 + tok[r] % 7) << "step " << step;
      if (!open.count(line) && rng.next_below(2) == 0) {
        t.attach(line, r);
        open[line] = r;
      } else {
        t.release(r);
        tok.erase(r);
      }
      detached.erase(it);
    }
    peak = std::max(peak, open.size());
    ASSERT_EQ(t.size(), open.size()) << "step " << step;
    for (Addr l = 64; l <= 64 * kLines; l += 64) {
      const auto it = open.find(l);
      const std::uint32_t r = t.find(l);
      ASSERT_EQ(r == t.kNone, it == open.end()) << "step " << step;
      ASSERT_EQ(t.contains(l), it != open.end()) << "step " << step;
      if (it == open.end()) continue;
      ASSERT_EQ(r, it->second) << "step " << step << " line " << l;
      ASSERT_EQ(std::as_const(t)[r].token, tok[r]) << "step " << step;
    }
  }
  // Past several doublings of the first array.
  EXPECT_GT(peak, 16 * LineTable<Value>::kInitialSlots);
}

}  // namespace
}  // namespace atacsim::mem
