// Line -> per-line state: every line-keyed table of the memory system. A
// cache controller keeps its MSHRs in one, a directory slice its open
// transactions and its tracked lines, and the Machine the index of the
// cores that hold each line (sim::HolderIndex, whose holder sets sit in a
// pool indexed by row). Nothing iterates a table, so the order of its rows
// never reaches a simulated value.
//
// Open addressing with linear probing over a power-of-two array of row
// numbers; a row holds its line and its value. Rows are recycled: closing
// a line clears its row's value and hands the row to the next line that
// opens, so vectors inside a value keep their storage (see
// clear_for_reuse). Once a run has reached its peak number of open lines,
// opening and closing one allocates nothing. A new table owns no storage at
// all: constructing one allocates nothing.
//
// A row number stays valid until the row is released; a reference into a
// row does not survive acquiring another row (the row array may grow).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace atacsim::mem {

/// Empties a vector of a row being recycled. Storage for a few entries
/// stays, so the common short list reuses it; the storage of a longer one
/// (a burst of requests on a hot line) is freed, so that no row holds a
/// burst's high-water mark for the rest of the run.
template <typename T>
void clear_for_reuse(std::vector<T>& v) {
  constexpr std::size_t kKeptEntries = 4;
  if (v.capacity() > kKeptEntries)
    std::vector<T>().swap(v);
  else
    v.clear();
}

/// `V` must be default-constructible; release() also needs its `clear()`,
/// which returns it to a new value's state.
template <typename V>
class LineTable {
 public:
  /// No row: find()'s answer for a line that is not open.
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};
  /// Slots of the first array, made when the first line opens; the array
  /// doubles whenever it would be more than half full.
  static constexpr std::size_t kInitialSlots = 4;

  /// Open lines.
  std::size_t size() const { return size_; }

  /// The row of `line`, or kNone if it is not open.
  std::uint32_t find(Addr line) const {
    return slots_.empty() ? kNone : slots_[slot_of(line)];
  }
  bool contains(Addr line) const { return find(line) != kNone; }

  V& operator[](std::uint32_t row) { return rows_[row].value; }
  const V& operator[](std::uint32_t row) const { return rows_[row].value; }

  /// A cleared row, recycled if one is free, not yet attached to a line.
  std::uint32_t acquire() {
    if (!free_rows_.empty()) {
      const std::uint32_t r = free_rows_.back();
      free_rows_.pop_back();
      return r;
    }
    rows_.emplace_back();
    return static_cast<std::uint32_t>(rows_.size() - 1);
  }
  /// Opens `line`, which must not be open, on `row`.
  void attach(Addr line, std::uint32_t row) {
    // Keep the array at most half full so probe runs stay short.
    if (2 * (size_ + 1) > slots_.size()) grow();
    rows_[row].line = line;
    slots_[slot_of(line)] = row;
    ++size_;
  }
  /// Opens `line` on a new row and returns the row.
  std::uint32_t insert(Addr line) {
    const std::uint32_t r = acquire();
    attach(line, r);
    return r;
  }
  /// Closes `line`, which must be open, and returns its row: find() no
  /// longer sees it, but the row keeps its value until release().
  std::uint32_t detach(Addr line) {
    const std::size_t s = slot_of(line);
    const std::uint32_t r = slots_[s];
    erase_slot(s);
    return r;
  }
  /// Clears a detached row and makes it free.
  void release(std::uint32_t row) {
    rows_[row].value.clear();
    free_rows_.push_back(row);
  }

 private:
  struct Row {
    Addr line = 0;
    [[no_unique_address]] V value;  // an empty V adds nothing to a row
  };

  std::size_t home(Addr line) const {
    return static_cast<std::size_t>((line * 0x9E3779B97F4A7C15ull) >> shift_);
  }
  /// The slot holding `line`, or the free slot that ends its probe run.
  std::size_t slot_of(Addr line) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t s = home(line);
    while (slots_[s] != kNone && rows_[slots_[s]].line != line)
      s = (s + 1) & mask;
    return s;
  }
  /// Frees `slot`, shifting later entries of its probe run back so every
  /// line stays reachable from its home slot.
  void erase_slot(std::size_t slot) {
    --size_;
    const std::size_t mask = slots_.size() - 1;
    std::size_t hole = slot;
    for (std::size_t s = (hole + 1) & mask; slots_[s] != kNone;
         s = (s + 1) & mask) {
      // The entry at s may fill the hole unless its home lies cyclically
      // in (hole, s]: then it would sit before its home and be unreachable.
      const std::size_t h = home(rows_[slots_[s]].line);
      const bool stays =
          hole < s ? (hole < h && h <= s) : (hole < h || h <= s);
      if (stays) continue;
      slots_[hole] = slots_[s];
      hole = s;
    }
    slots_[hole] = kNone;
  }
  void grow() {
    std::vector<std::uint32_t> old(
        slots_.empty() ? kInitialSlots : 2 * slots_.size(), kNone);
    old.swap(slots_);
    shift_ = 64;
    for (std::size_t n = slots_.size(); n > 1; n /= 2) --shift_;
    for (const std::uint32_t r : old)
      if (r != kNone) slots_[slot_of(rows_[r].line)] = r;
  }

  int shift_ = 64;  // 64 - log2(slots_.size())
  std::size_t size_ = 0;
  std::vector<std::uint32_t> slots_;  // row numbers, or kNone
  std::vector<Row> rows_;
  std::vector<std::uint32_t> free_rows_;  // released rows, values cleared
};

}  // namespace atacsim::mem
