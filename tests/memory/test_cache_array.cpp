#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "memory/cache_array.hpp"

namespace atacsim::mem {
namespace {

/// Reference model: the straightforward tag array CacheArray replaced. Every
/// way stores its tag, its state and the global tick of its last use; the
/// victim is the first invalid way, else the way with the oldest tick.
class TickLruArray {
 public:
  TickLruArray(int size_KB, int assoc, int line_B)
      : line_B_(line_B),
        sets_(size_KB * 1024 / line_B / assoc),
        assoc_(assoc),
        lines_(static_cast<std::size_t>(sets_) * assoc) {}

  LineState lookup(Addr line) {
    Line* l = find(line);
    if (!l) return LineState::kInvalid;
    l->lru = ++tick_;
    return l->state;
  }
  LineState peek(Addr line) {
    const Line* l = find(line);
    return l ? l->state : LineState::kInvalid;
  }
  LineState hit(Addr line, bool write) {
    const LineState s = peek(line);
    if (s == LineState::kInvalid || (write && s != LineState::kModified))
      return LineState::kInvalid;
    return lookup(line);
  }
  std::optional<CacheArray::Victim> install(Addr line, LineState state) {
    Line* v = find(line);
    std::optional<CacheArray::Victim> out;
    if (!v) {
      Line* set = &lines_[(line / line_B_) % sets_ * assoc_];
      v = set;
      for (int w = 0; w < assoc_; ++w) {
        if (set[w].state == LineState::kInvalid) {
          v = &set[w];
          break;
        }
        if (set[w].lru < v->lru) v = &set[w];
      }
      if (v->state != LineState::kInvalid)
        out = CacheArray::Victim{v->tag, v->state};
    }
    *v = Line{line, state, ++tick_};
    return out;
  }
  void set_state(Addr line, LineState s) {
    if (Line* l = find(line)) l->state = s;
  }
  LineState invalidate(Addr line) {
    Line* l = find(line);
    if (!l) return LineState::kInvalid;
    const LineState prev = l->state;
    l->state = LineState::kInvalid;
    return prev;
  }
  int occupancy() const {
    int n = 0;
    for (const Line& l : lines_) n += l.state != LineState::kInvalid;
    return n;
  }

 private:
  struct Line {
    Addr tag = 0;
    LineState state = LineState::kInvalid;
    std::uint64_t lru = 0;
  };
  Line* find(Addr line) {
    Line* set = &lines_[(line / line_B_) % sets_ * assoc_];
    for (int w = 0; w < assoc_; ++w)
      if (set[w].state != LineState::kInvalid && set[w].tag == line)
        return &set[w];
    return nullptr;
  }

  Addr line_B_;
  Addr sets_;
  int assoc_;
  std::uint64_t tick_ = 0;
  std::vector<Line> lines_;
};

TEST(CacheArray, MissThenHit) {
  CacheArray c(32, 4, 64);
  EXPECT_EQ(c.lookup(0x1000), LineState::kInvalid);
  c.install(0x1000, LineState::kShared);
  EXPECT_EQ(c.lookup(0x1000), LineState::kShared);
  EXPECT_EQ(c.peek(0x1040), LineState::kInvalid);
}

TEST(CacheArray, HitBumpsLruOnlyWhenTheStateAllowsTheAccess) {
  CacheArray c(1, 4, 64);  // 4 sets
  const Addr stride = 4 * 64;
  c.install(0x10000, LineState::kShared);
  c.install(0x10000 + stride, LineState::kModified);
  c.install(0x10000 + 2 * stride, LineState::kShared);
  c.install(0x10000 + 3 * stride, LineState::kShared);
  // A store to a Shared line is refused and leaves line 0 least recent.
  EXPECT_EQ(c.hit(0x10000, true), LineState::kInvalid);
  EXPECT_EQ(c.hit(0x10000 + 4 * stride, false), LineState::kInvalid);
  auto victim = c.install(0x10000 + 4 * stride, LineState::kShared);
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(victim->line, 0x10000u);
  // A load of any valid line and a store to a Modified one are hits.
  EXPECT_EQ(c.hit(0x10000 + 2 * stride, false), LineState::kShared);
  EXPECT_EQ(c.hit(0x10000 + stride, true), LineState::kModified);
  // Line 3 is now least recent: both hits lifted their lines above it.
  victim = c.install(0x10000, LineState::kShared);
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(victim->line, 0x10000 + 3 * stride);
}

TEST(CacheArray, LineAlignment) {
  CacheArray c(32, 4, 64);
  EXPECT_EQ(c.line_of(0x1234), 0x1200u);
  EXPECT_EQ(c.line_of(0x1200), 0x1200u);
  EXPECT_EQ(c.line_of(0x123F), 0x1200u);
}

TEST(CacheArray, LruEvictsLeastRecentlyUsed) {
  CacheArray c(1, 4, 64);  // 1 KB, 4-way, 64 B lines -> 4 sets
  // Fill one set: addresses with the same set index (stride = sets*line).
  const Addr stride = 4 * 64;
  for (Addr i = 0; i < 4; ++i)
    EXPECT_FALSE(c.install(0x10000 + i * stride, LineState::kShared));
  // Touch line 0 so line 1 becomes LRU.
  c.lookup(0x10000);
  auto victim = c.install(0x10000 + 4 * stride, LineState::kShared);
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(victim->line, 0x10000 + 1 * stride);
}

TEST(CacheArray, InstallOnPresentLineUpdatesState) {
  CacheArray c(32, 4, 64);
  c.install(0x2000, LineState::kShared);
  EXPECT_FALSE(c.install(0x2000, LineState::kModified).has_value());
  EXPECT_EQ(c.peek(0x2000), LineState::kModified);
  EXPECT_EQ(c.occupancy(), 1);
}

TEST(CacheArray, InvalidateReturnsPreviousState) {
  CacheArray c(32, 4, 64);
  c.install(0x3000, LineState::kModified);
  EXPECT_EQ(c.invalidate(0x3000), LineState::kModified);
  EXPECT_EQ(c.invalidate(0x3000), LineState::kInvalid);
  EXPECT_EQ(c.occupancy(), 0);
}

TEST(CacheArray, SetStateOnAbsentLineIsNoop) {
  CacheArray c(32, 4, 64);
  c.set_state(0x4000, LineState::kModified);
  EXPECT_EQ(c.peek(0x4000), LineState::kInvalid);
}

TEST(CacheArray, GeometryValidation) {
  EXPECT_THROW(CacheArray(1, 7, 64), std::invalid_argument);
  // Ranks are bytes: at most 255 ways.
  EXPECT_THROW(CacheArray(1024, 256, 64), std::invalid_argument);
  EXPECT_NO_THROW(CacheArray(1020, 255, 64));
  // The low 2 bits of a line address hold the line's state.
  EXPECT_THROW(CacheArray(1, 1, 2), std::invalid_argument);
  EXPECT_THROW(CacheArray(1, 1, 48), std::invalid_argument);
  EXPECT_NO_THROW(CacheArray(1, 1, 4));
  const CacheArray c(256, 8, 64);
  EXPECT_EQ(c.num_lines(), 4096);
  EXPECT_EQ(c.num_sets(), 512);
}

TEST(CacheArray, DistinctSetsDoNotConflict) {
  CacheArray c(1, 1, 64);  // direct-mapped, 16 sets
  for (Addr i = 0; i < 16; ++i)
    EXPECT_FALSE(c.install(i * 64, LineState::kShared).has_value());
  EXPECT_EQ(c.occupancy(), 16);
  // 17th line aliases set 0.
  auto v = c.install(16 * 64, LineState::kShared);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->line, 0u);
}

// Drives CacheArray and the tick-based reference with the same seeded random
// calls and compares every return value, every victim and the occupancy
// after each call. The addresses concentrate on a few sets (first, second,
// middle, last) so that sets overflow and evict, and tags come in pairs that
// differ only in a high address bit.
TEST(CacheArray, MatchesTickLruReference) {
  constexpr int kOpsPerGeometry = 100'000;
  constexpr LineState kStates[] = {LineState::kInvalid, LineState::kShared,
                                   LineState::kModified};
  struct Geometry {
    int size_KB, assoc;
  };
  for (const Geometry g : {Geometry{1, 1}, Geometry{1, 4}, Geometry{2, 2},
                           Geometry{32, 4}, Geometry{256, 8}}) {
    SCOPED_TRACE(testing::Message()
                 << g.size_KB << " KB, " << g.assoc << "-way");
    CacheArray c(g.size_KB, g.assoc, 64);
    TickLruArray ref(g.size_KB, g.assoc, 64);
    const Addr sets = static_cast<Addr>(c.num_sets());
    const Addr hot_sets[] = {0, 1, sets / 2, sets - 1};
    Xoshiro256 rng(static_cast<std::uint64_t>(g.size_KB * 1000 + g.assoc));
    for (int op = 0; op < kOpsPerGeometry; ++op) {
      const Addr t = rng.next_below(3 * static_cast<Addr>(g.assoc) + 1);
      const Addr tag = (t >> 1) | ((t & 1) << 30);
      const Addr line = (tag * sets + hot_sets[rng.next_below(4)]) * 64;
      switch (rng.next_below(6)) {
        case 0:
          ASSERT_EQ(c.lookup(line), ref.lookup(line)) << "op " << op;
          break;
        case 1:
          ASSERT_EQ(c.peek(line), ref.peek(line)) << "op " << op;
          break;
        case 2: {
          const LineState s = kStates[1 + rng.next_below(2)];
          const auto got = c.install(line, s);
          const auto want = ref.install(line, s);
          ASSERT_EQ(got.has_value(), want.has_value()) << "op " << op;
          if (got) {
            ASSERT_EQ(got->line, want->line) << "op " << op;
            ASSERT_EQ(got->state, want->state) << "op " << op;
          }
          break;
        }
        case 3: {
          const LineState s = kStates[rng.next_below(3)];
          c.set_state(line, s);
          ref.set_state(line, s);
          break;
        }
        case 4: {
          const bool write = rng.next_below(2) != 0;
          ASSERT_EQ(c.hit(line, write), ref.hit(line, write)) << "op " << op;
          break;
        }
        default:
          ASSERT_EQ(c.invalidate(line), ref.invalidate(line)) << "op " << op;
      }
      ASSERT_EQ(c.occupancy(), ref.occupancy()) << "op " << op;
    }
  }
}

}  // namespace
}  // namespace atacsim::mem
