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

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.hpp"

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

/// Line -> set of holder cores. Open addressing with linear probing over a
/// power-of-two table of row numbers into a pool; a row is the line
/// followed by its set of holders, and it is released when the line's last
/// holder leaves. Once the table and the pool have grown to a run's peak,
/// adding and removing holders allocates nothing.
class HolderIndex {
 public:
  explicit HolderIndex(int num_cores);

  /// Words per set of cores.
  std::size_t words() const { return words_; }

  void add(Addr line, CoreId c);
  /// Clears `c`'s bit (a no-op if it is not set) and erases the line once
  /// no holder remains.
  void remove(Addr line, CoreId c);
  /// The line's holders, or null if it has none. Valid until the next add
  /// or remove.
  const std::uint64_t* find(Addr line) const;
  bool holds(Addr line, CoreId c) const {
    const std::uint64_t* bits = find(line);
    return bits && has_core(bits, c);
  }

 private:
  static constexpr std::uint32_t kFree = ~std::uint32_t{0};

  std::size_t home(Addr line) const {
    return static_cast<std::size_t>((line * 0x9E3779B97F4A7C15ull) >> shift_);
  }
  /// First word of row `r`: the line; its holders follow.
  std::uint64_t* row(std::uint32_t r) {
    return &pool_[static_cast<std::size_t>(r) * (words_ + 1)];
  }
  const std::uint64_t* row(std::uint32_t r) const {
    return &pool_[static_cast<std::size_t>(r) * (words_ + 1)];
  }
  /// Slot holding `line`'s row, or the free slot that ends its probe run.
  std::size_t slot_of(Addr line) const;
  /// Frees `slot`, shifting later entries of its probe run back so every
  /// line stays reachable from its home slot.
  void erase_slot(std::size_t slot);
  void grow();

  std::size_t words_;
  int shift_ = 64;                        // 64 - log2(table size)
  std::vector<std::uint32_t> slots_;      // row number, or kFree
  std::vector<std::uint64_t> pool_;       // rows of 1 + words_ words
  std::vector<std::uint32_t> free_rows_;  // released rows, holders all zero
  std::size_t size_ = 0;
};

}  // namespace atacsim::sim
