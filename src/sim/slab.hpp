// Numbered slots of T whose addresses never move.
//
// Slots live in fixed-size pages allocated one at a time, so adding a page
// (even while a slot is in use) moves nothing. Each page stays below glibc's
// 128 KiB mmap threshold, so pages come from the heap like any other small
// allocation instead of each mapping its own pages. A freed slot is handed
// out again before a new page is made (last freed, first reused); pages are
// kept until the slab is destroyed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace atacsim::sim {

template <typename T, std::size_t kPerPage>
class Slab {
  static_assert(sizeof(T) * kPerPage < 128 * 1024,
                "a page must stay below the mmap threshold");

 public:
  /// A free slot's number. Its value is whatever the slot held last.
  std::uint32_t alloc() {
    if (free_.empty()) {
      const auto first = static_cast<std::uint32_t>(pages_.size() * kPerPage);
      pages_.push_back(std::make_unique<T[]>(kPerPage));
      for (std::size_t i = kPerPage; i-- > 0;)
        free_.push_back(first + static_cast<std::uint32_t>(i));
    }
    const std::uint32_t slot = free_.back();
    free_.pop_back();
    return slot;
  }
  void free(std::uint32_t slot) { free_.push_back(slot); }

  T& operator[](std::uint32_t slot) {
    return pages_[slot / kPerPage][slot % kPerPage];
  }
  const T& operator[](std::uint32_t slot) const {
    return pages_[slot / kPerPage][slot % kPerPage];
  }

  /// Slots handed out and not yet freed.
  std::size_t in_use() const { return pages_.size() * kPerPage - free_.size(); }

 private:
  std::vector<std::unique_ptr<T[]>> pages_;
  std::vector<std::uint32_t> free_;  // a stack: back() is handed out next
};

}  // namespace atacsim::sim
