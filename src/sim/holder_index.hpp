// Exact index of the cores that hold each cache line.
//
// A core holds a line while its L2 has a copy or an MSHR for the line is
// open. Under ACKwise a broadcast invalidation changes nothing at any other
// receiver but its per-slice sequence number, so the Machine runs the full
// handler only at holders (DESIGN.md section 8, "Broadcast delivery"). The
// cache controllers set and clear their own bits at the points their L2 and
// MSHR contents change; nothing here looks at a cache.
//
// Sets of cores are bitsets of `words()` 64-bit words: bit c % 64 of word
// c / 64 stands for core c.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "memory/line_table.hpp"

namespace atacsim::sim {

inline bool has_core(const std::uint64_t* bits, CoreId c) {
  return (bits[static_cast<std::size_t>(c) / 64] >> (c % 64)) & 1u;
}
inline void set_core(std::uint64_t* bits, CoreId c) {
  bits[static_cast<std::size_t>(c) / 64] |= std::uint64_t{1} << (c % 64);
}
inline void clear_core(std::uint64_t* bits, CoreId c) {
  bits[static_cast<std::size_t>(c) / 64] &= ~(std::uint64_t{1} << (c % 64));
}

/// Line -> set of holder cores. A line's row in a mem::LineTable indexes a
/// pool of sets; the row is released when the line's last holder leaves,
/// with its set all zero, ready for the next line. Once the table and the
/// pool have grown to a run's peak, adding and removing holders allocates
/// nothing.
class HolderIndex {
 public:
  explicit HolderIndex(int num_cores)
      : words_((static_cast<std::size_t>(num_cores) + 63) / 64) {}

  /// Words per set of cores.
  std::size_t words() const { return words_; }

  void add(Addr line, CoreId c) {
    std::uint32_t r = lines_.find(line);
    if (r == lines_.kNone) {
      r = lines_.insert(line);
      const std::size_t end = (static_cast<std::size_t>(r) + 1) * words_;
      if (pool_.size() < end) pool_.resize(end, 0);
    }
    set_core(bits(r), c);
  }
  /// Clears `c`'s bit (a no-op if it is not set) and releases the line's
  /// row once no holder remains.
  void remove(Addr line, CoreId c) {
    const std::uint32_t r = lines_.find(line);
    if (r == lines_.kNone) return;
    std::uint64_t* b = bits(r);
    clear_core(b, c);
    if (std::all_of(b, b + words_, [](std::uint64_t w) { return w == 0; }))
      lines_.release(lines_.detach(line));
  }
  /// The line's holders, or null if it has none. Valid until the next add
  /// or remove.
  const std::uint64_t* find(Addr line) const {
    const std::uint32_t r = lines_.find(line);
    return r == lines_.kNone ? nullptr
                             : &pool_[static_cast<std::size_t>(r) * words_];
  }
  bool holds(Addr line, CoreId c) const {
    const std::uint64_t* b = find(line);
    return b && has_core(b, c);
  }

 private:
  /// A row's value: its set lives in pool_, so a row holds only its line.
  struct NoValue {
    void clear() {}
  };

  std::uint64_t* bits(std::uint32_t r) {
    return &pool_[static_cast<std::size_t>(r) * words_];
  }

  std::size_t words_;
  mem::LineTable<NoValue> lines_;
  std::vector<std::uint64_t> pool_;  // words_ words per row of lines_
};

}  // namespace atacsim::sim
