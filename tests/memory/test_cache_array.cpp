#include <gtest/gtest.h>
#include <malloc.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <optional>
#include <stdexcept>
#include <string>
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
  // Lines are a power of two of at least 4 bytes.
  EXPECT_THROW(CacheArray(1, 1, 2), std::invalid_argument);
  EXPECT_THROW(CacheArray(1, 1, 48), std::invalid_argument);
  EXPECT_NO_THROW(CacheArray(1, 1, 4));
  // Sets are indexed by mask: 96 KB makes 192 8-way sets.
  EXPECT_THROW(CacheArray(96, 8, 64), std::invalid_argument);
  EXPECT_THROW(CacheArray(3, 1, 64), std::invalid_argument);
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

/// The largest tag a word holds: 22 bits above the set index.
constexpr Addr kTopTag = (Addr{1} << 22) - 1;

TEST(CacheArray, RebuildsVictimsAtTheTopOfTheTagField) {
  // A victim's line is rebuilt from its tag and the installed line's set
  // bits. Fill the first and the last set with the highest tags the word
  // holds, then evict every way with low tags: each victim must come back
  // exactly, oldest first.
  struct Geometry {
    int size_KB, assoc;
  };
  for (const Geometry g : {Geometry{1, 16}, Geometry{1, 1}, Geometry{32, 4},
                           Geometry{256, 8}, Geometry{1020, 255}}) {
    SCOPED_TRACE(testing::Message()
                 << g.size_KB << " KB, " << g.assoc << "-way");
    const Addr sets = static_cast<Addr>(g.size_KB) * 1024 / 64 / g.assoc;
    for (const Addr set : {Addr{0}, sets - 1}) {
      CacheArray c(g.size_KB, g.assoc, 64);
      ASSERT_EQ(static_cast<Addr>(c.num_sets()), sets);
      const auto line = [&](Addr tag) { return (tag * sets + set) * 64; };
      std::vector<Addr> filled;
      for (int w = 0; w < g.assoc; ++w) {
        filled.push_back(line(kTopTag - static_cast<Addr>(w)));
        ASSERT_FALSE(c.install(filled.back(), LineState::kModified));
      }
      EXPECT_EQ(c.peek(line(kTopTag)), LineState::kModified);
      for (int w = 0; w < g.assoc; ++w) {
        const auto v =
            c.install(line(static_cast<Addr>(w)), LineState::kShared);
        ASSERT_TRUE(v.has_value()) << "way " << w;
        EXPECT_EQ(v->line, filled[w]) << "way " << w;
        EXPECT_EQ(v->state, LineState::kModified) << "way " << w;
      }
      EXPECT_EQ(c.peek(line(kTopTag)), LineState::kInvalid);
    }
  }
}

TEST(CacheArray, RefusesALineBeyondTheTagField) {
  // The paper's L2: 512 sets of 64 B lines, so tags start at bit 15 and
  // the tag field ends below 2^37. The refusal is an exception, not an
  // assert, so it holds in every build type.
  CacheArray c(256, 8, 64);
  const Addr beyond = (kTopTag + 1) << 15;
  ASSERT_EQ(beyond, Addr{1} << 37);
  EXPECT_NO_THROW(c.install(beyond - 64, LineState::kShared));
  EXPECT_THROW(c.lookup(beyond), std::out_of_range);
  EXPECT_THROW(c.peek(beyond), std::out_of_range);
  EXPECT_THROW(c.hit(beyond, false), std::out_of_range);
  EXPECT_THROW(c.install(beyond, LineState::kShared), std::out_of_range);
  EXPECT_THROW(c.set_state(beyond, LineState::kModified), std::out_of_range);
  EXPECT_THROW(c.invalidate(beyond), std::out_of_range);
  EXPECT_THROW(c.peek(~Addr{63}), std::out_of_range);
  // A refused call changes nothing: a truncated tag 2^22 would have been
  // tag 0 of set 0.
  EXPECT_EQ(c.occupancy(), 1);
  EXPECT_EQ(c.peek(beyond - 64), LineState::kShared);
  try {
    c.peek(beyond);
    FAIL() << "no exception";
  } catch (const std::out_of_range& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("0x2000000000"), std::string::npos) << what;
    EXPECT_NE(what.find("512-set"), std::string::npos) << what;
    EXPECT_NE(what.find("64 B lines"), std::string::npos) << what;
  }
}

struct Geometry {
  int size_KB, assoc;
};

/// The differential's geometries. 255 ways fill the 8-bit rank field;
/// 1 KB 16-way is a single set, so the tag starts right above the line
/// offset.
constexpr Geometry kGeometries[] = {
    Geometry{1, 1},  Geometry{1, 4},   Geometry{1, 16}, Geometry{2, 2},
    Geometry{32, 4}, Geometry{256, 8}, Geometry{64, 16}, Geometry{1020, 255}};

/// Sets glibc's M_PERTURB for its scope: malloc then fills every block it
/// hands out with the complement of `byte` (0x5A for 165), so a tag store
/// that reads a word before writing it sees a valid Modified line.
class DirtyHeap {
 public:
  explicit DirtyHeap(int byte) { mallopt(M_PERTURB, byte); }
  ~DirtyHeap() { mallopt(M_PERTURB, 0); }
  DirtyHeap(const DirtyHeap&) = delete;
  DirtyHeap& operator=(const DirtyHeap&) = delete;
};

/// A CacheArray of 64 B lines built over a dirty heap, and the tag its
/// garbage words would hold.
struct DirtyArray {
  std::unique_ptr<CacheArray> array;
  Addr garbage_tag = 0;
};

DirtyArray build_over_garbage(const Geometry& g) {
  DirtyArray out;
  std::uint32_t garbage = 0;
  {
    DirtyHeap dirty(165);
    // A block of the size and alignment of the array's words shows what
    // the heap hands out; the array then gets this block or one like it.
    const std::size_t bytes =
        static_cast<std::size_t>(g.size_KB) * 1024 / 64 * sizeof garbage;
    void* probe = ::operator new(bytes, std::align_val_t{64});
    std::memcpy(&garbage, probe, sizeof garbage);
    ::operator delete(probe, std::align_val_t{64});
    out.array = std::make_unique<CacheArray>(g.size_KB, g.assoc, 64);
  }
  // Unless the heap's garbage reads as a valid line, these tests show
  // nothing.
  EXPECT_NE(garbage & 3, 0u) << "heap word 0x" << std::hex << garbage;
  out.garbage_tag = garbage >> 10;
  return out;
}

// Drives `c` and the tick-based reference with the same seeded random calls
// and compares every return value, every victim and the occupancy after each
// call. The addresses concentrate on a few sets (first, second, middle,
// last) so that sets overflow and evict, and tags come in pairs that differ
// only in the top bit of the 22-bit tag field. With `garbage_tag`, one call
// in about 3 x assoc names a line of that tag, the one a set's unwritten
// words would hold.
void expect_matches_reference(CacheArray& c, const Geometry& g,
                              std::optional<Addr> garbage_tag) {
  constexpr int kOpsPerGeometry = 100'000;
  constexpr LineState kStates[] = {LineState::kInvalid, LineState::kShared,
                                   LineState::kModified};
  TickLruArray ref(g.size_KB, g.assoc, 64);
  const Addr sets = static_cast<Addr>(c.num_sets());
  const Addr hot_sets[] = {0, 1, sets / 2, sets - 1};
  const Addr tags = 3 * static_cast<Addr>(g.assoc) + 1;
  Xoshiro256 rng(static_cast<std::uint64_t>(g.size_KB * 1000 + g.assoc));
  for (int op = 0; op < kOpsPerGeometry; ++op) {
    const Addr t = rng.next_below(tags + (garbage_tag ? 1 : 0));
    const Addr tag = t == tags ? *garbage_tag : (t >> 1) | ((t & 1) << 21);
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

TEST(CacheArray, MatchesTickLruReference) {
  for (const Geometry& g : kGeometries) {
    SCOPED_TRACE(testing::Message()
                 << g.size_KB << " KB, " << g.assoc << "-way");
    CacheArray c(g.size_KB, g.assoc, 64);
    expect_matches_reference(c, g, std::nullopt);
  }
}

// The same differential on arrays whose tag words the heap handed out
// full of garbage: a set reads as empty until its first install zeroes it.
TEST(CacheArray, MatchesTickLruReferenceOverGarbage) {
  for (const Geometry& g : kGeometries) {
    SCOPED_TRACE(testing::Message()
                 << g.size_KB << " KB, " << g.assoc << "-way");
    DirtyArray d = build_over_garbage(g);
    expect_matches_reference(*d.array, g, d.garbage_tag);
  }
}

TEST(CacheArray, AFreshArrayOverGarbageHoldsNoLine) {
  for (const Geometry& g : kGeometries) {
    SCOPED_TRACE(testing::Message()
                 << g.size_KB << " KB, " << g.assoc << "-way");
    DirtyArray d = build_over_garbage(g);
    CacheArray& c = *d.array;
    EXPECT_EQ(c.occupancy(), 0);
    const Addr sets = static_cast<Addr>(c.num_sets());
    for (Addr set = 0; set < sets; ++set) {
      for (const Addr tag : {d.garbage_tag, Addr{0}}) {
        const Addr line = (tag * sets + set) * 64;
        ASSERT_EQ(c.peek(line), LineState::kInvalid) << "set " << set;
        ASSERT_EQ(c.hit(line, false), LineState::kInvalid) << "set " << set;
        ASSERT_EQ(c.lookup(line), LineState::kInvalid) << "set " << set;
        c.set_state(line, LineState::kShared);
        ASSERT_EQ(c.invalidate(line), LineState::kInvalid) << "set " << set;
      }
    }
    EXPECT_EQ(c.occupancy(), 0);
  }
}

}  // namespace
}  // namespace atacsim::mem
