// Set-associative tag array with LRU replacement and MSI line states.
// Purely structural: holds no data (application data lives in host memory);
// tracks presence, permissions and dirtiness for timing and protocol state.
//
// Each way is one 4-byte word, so an 8-way set is 32 bytes and two sets
// share a 64-byte host cache line (the words are allocated 64-byte aligned,
// so a set of up to 16 ways never straddles two host lines). A word holds,
// from the top:
//  - bits 10..31: the tag, the line number's bits above the set index
//    (`line >> (line_shift + set_shift)`). The set index is implied by the
//    word's position, so a line whose tag needs more than 22 bits is refused
//    with std::out_of_range: the paper's L2 (512 sets of 64 B lines) takes
//    simulated addresses below 2^37, its L1-D (128 sets) below 2^35;
//  - bits 2..9: the recency rank, which orders the ways of a set by last use
//    (higher = more recent). All ranks start at 0; each touch lifts a way to
//    the top and moves the ways ranked above its old rank down one, so valid
//    ways (every one has been touched) always hold distinct ranks in
//    last-use order. Invalidating a way keeps its rank;
//  - bits 0..1: the LineState (0 = invalid, whatever the other bits hold).
// The victim is the first invalid way, else the valid way of lowest rank:
// the least recently used. Sets are indexed by the low bits of the line
// number, so the set count must be a power of two.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <new>
#include <optional>
#include <vector>

#include "common/types.hpp"

namespace atacsim::mem {

enum class LineState : std::uint8_t { kInvalid, kShared, kModified };

class CacheArray {
 public:
  /// Throws std::invalid_argument unless `line_B` is a power of two of at
  /// least 4 bytes, `assoc` is at most 255 (ranks are 8 bits) and the lines
  /// divide into a power-of-two number of `assoc`-way sets.
  CacheArray(int size_KB, int assoc, int line_B);

  /// Line-aligned address for `addr`.
  Addr line_of(Addr addr) const { return addr & ~static_cast<Addr>(line_B_ - 1); }

  // Every call taking a `line` (line-aligned) throws std::out_of_range if
  // its tag does not fit the 22-bit tag field.

  /// Looks up `line`; bumps LRU on hit.
  LineState lookup(Addr line);
  /// Peek without LRU update.
  LineState peek(Addr line) const;
  /// One-probe hit test: if `line` is present in a state that allows the
  /// access (any valid state for a read, Modified for a write), bumps LRU
  /// and returns that state. Otherwise changes nothing and returns
  /// kInvalid.
  LineState hit(Addr line, bool write);

  /// Installs `line` in `state`; returns the victim (line address + state)
  /// if a valid line had to be evicted.
  struct Victim {
    Addr line;
    LineState state;
  };
  std::optional<Victim> install(Addr line, LineState state);

  /// Changes the state of a present line; no-op if absent.
  void set_state(Addr line, LineState s);
  /// Removes a line; returns its previous state.
  LineState invalidate(Addr line);

  int num_lines() const { return static_cast<int>(tags_.size()); }
  int num_sets() const { return sets_; }

  /// Count of valid lines (testing / occupancy stats).
  int occupancy() const;

 private:
  using Word = std::uint32_t;
  static constexpr Word kStateMask = 3;
  static constexpr int kRankShift = 2;
  static constexpr Word kRankOne = Word{1} << kRankShift;
  static constexpr Word kRankMask = Word{0xFF} << kRankShift;
  static constexpr int kKeyShift = 10;
  static constexpr int kTagBits = 32 - kKeyShift;

  /// Allocates whole host cache lines, so a set starts on a line boundary.
  template <class T>
  struct HostLineAllocator {
    using value_type = T;
    static constexpr std::align_val_t kAlign{64};
    HostLineAllocator() = default;
    template <class U>
    HostLineAllocator(const HostLineAllocator<U>&) {}
    T* allocate(std::size_t n) {
      return static_cast<T*>(::operator new(n * sizeof(T), kAlign));
    }
    void deallocate(T* p, std::size_t) { ::operator delete(p, kAlign); }
    friend bool operator==(HostLineAllocator, HostLineAllocator) {
      return true;
    }
  };

  static LineState state_of(Word word) {
    return static_cast<LineState>(word & kStateMask);
  }
  /// `line`'s tag in the key bits of a word, rank and state 0.
  Word key_of(Addr line) const {
    assert((line & static_cast<Addr>(line_B_ - 1)) == 0 &&
           "line must be line-aligned");
    const Addr tag = line >> tag_shift_;
    if (tag >> kTagBits) [[unlikely]]
      throw_beyond_tag_field(line);
    return static_cast<Word>(tag) << kKeyShift;
  }
  /// Index of `line`'s set.
  std::size_t set_of(Addr line) const {
    return static_cast<std::size_t>((line >> line_shift_) &
                                    static_cast<Addr>(sets_ - 1));
  }
  [[noreturn]] void throw_beyond_tag_field(Addr line) const;
  /// Index of the valid way holding `key`, or -1.
  int find(std::size_t base, Word key) const;
  /// Makes `way` the most recently used of its set.
  void touch(std::size_t base, int way);

  int line_B_;
  int line_shift_ = 0;
  int tag_shift_ = 0;  // line_shift_ + log2(sets_)
  int sets_;
  int assoc_;
  std::vector<Word, HostLineAllocator<Word>> tags_;  // sets_ x assoc_ words
};

}  // namespace atacsim::mem
