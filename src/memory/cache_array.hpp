// Set-associative tag array with LRU replacement and MSI line states.
// Purely structural: holds no data (application data lives in host memory);
// tracks presence, permissions and dirtiness for timing and protocol state.
//
// Each way is one 8-byte tag word plus a 1-byte recency rank, kept in two
// separate arrays so a lookup reads about one host cache line of tags:
//  - the tag word is the line-aligned address with the LineState in its low
//    2 bits (state 0 = invalid, whatever the address bits hold);
//  - the rank orders the ways of a set by last use (higher = more recent).
//    All ranks start at 0; each touch lifts a way to the top and moves the
//    ways ranked above its old rank down one, so valid ways (every one has
//    been touched) always hold distinct ranks in last-use order. The victim
//    is the first invalid way, else the valid way of lowest rank: the least
//    recently used.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.hpp"

namespace atacsim::mem {

enum class LineState : std::uint8_t { kInvalid, kShared, kModified };

class CacheArray {
 public:
  /// Throws std::invalid_argument unless the lines divide into `assoc`-way
  /// sets, `assoc` is at most 255 (ranks are bytes), and `line_B` is a power
  /// of two that leaves room for the state bits below the tag.
  CacheArray(int size_KB, int assoc, int line_B);

  /// Line-aligned address for `addr`.
  Addr line_of(Addr addr) const { return addr & ~static_cast<Addr>(line_B_ - 1); }

  /// Looks up `line` (must be line-aligned); bumps LRU on hit.
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
  int assoc() const { return assoc_; }

  /// Count of valid lines (testing / occupancy stats).
  int occupancy() const;

 private:
  static constexpr Addr kStateMask = 3;

  static LineState state_of(Addr word) {
    return static_cast<LineState>(word & kStateMask);
  }
  /// First way of `line`'s set in tags_ and ranks_.
  std::size_t set_base(Addr line) const {
    assert((line & kStateMask) == 0 && "line must be line-aligned");
    return static_cast<std::size_t>((line >> line_shift_) % sets_) * assoc_;
  }
  /// Index of the valid way holding `line`, or -1.
  int find(std::size_t base, Addr line) const;
  /// Makes `way` the most recently used of its set.
  void touch(std::size_t base, int way);

  int line_B_;
  int line_shift_ = 0;
  int sets_;
  int assoc_;
  std::vector<Addr> tags_;            // sets_ x assoc_ tag words
  std::vector<std::uint8_t> ranks_;   // sets_ x assoc_ recency ranks
};

}  // namespace atacsim::mem
