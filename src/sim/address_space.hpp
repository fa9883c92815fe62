// The simulated program's data: one owner for every block a kernel reads
// or writes through CoreCtx.
//
// An App allocates its shared arrays and scalars here before it runs, and
// its body() hands the space to the Machine. A block is one host
// allocation whose size is fixed when it is made: array() returns a
// std::span, which cannot grow, so no simulated data is reallocated while a
// program runs. Machine::translate raises a kAddress violation for any
// pointer outside the running body's space.
//
// Each block starts on malloc's 16-byte boundary (or T's own, if larger),
// so blocks never share a 16-byte translation granule and the grouping of
// data within a granule is fixed by the block's layout alone. The space
// records the blocks as regions, and numbers their granules, in allocation
// order.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

namespace atacsim::sim {

class AddressSpace {
 public:
  /// One block: host bytes [begin, end), allocated with `align`. Its
  /// granules are numbered from `first_granule`, the count before it.
  struct Region {
    std::uintptr_t begin = 0, end = 0;
    std::size_t align = 0;
    std::size_t first_granule = 0;
  };
  static constexpr std::size_t kGranule = 16;  ///< malloc's alignment

  AddressSpace() = default;
  // Kernels and the Machine hold pointers into the blocks.
  AddressSpace(const AddressSpace&) = delete;
  AddressSpace& operator=(const AddressSpace&) = delete;
  ~AddressSpace() {
    for (const Region& r : regions_) {
      void* p = reinterpret_cast<void*>(r.begin);
      if (r.align > __STDCPP_DEFAULT_NEW_ALIGNMENT__)
        ::operator delete(p, std::align_val_t{r.align});
      else
        ::operator delete(p);
    }
  }

  /// `n` value-initialized elements of T in a block of their own.
  template <typename T>
  std::span<T> array(std::size_t n) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "the space frees its blocks without destroying them");
    T* p = static_cast<T*>(allocate(n * sizeof(T), alignof(T)));
    std::uninitialized_value_construct_n(p, n);
    return {p, n};
  }

  /// One T built from `args` (value-initialized if there are none) in a
  /// block of its own.
  template <typename T, typename... Args>
  T& make(Args&&... args) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "the space frees its blocks without destroying them");
    return *::new (allocate(sizeof(T), alignof(T)))
        T(std::forward<Args>(args)...);
  }

  /// The block `p` lies inside, or null. O(log regions).
  const Region* find(const void* p) const {
    const auto a = reinterpret_cast<std::uintptr_t>(p);
    auto after = std::upper_bound(
        by_address_.begin(), by_address_.end(), a,
        [](std::uintptr_t x, const Region& r) { return x < r.begin; });
    if (after == by_address_.begin() || a >= (--after)->end) return nullptr;
    return &*after;
  }

  /// The blocks, in allocation order.
  std::span<const Region> regions() const { return regions_; }
  std::size_t granules() const { return granules_; }  ///< in all blocks

 private:
  void* allocate(std::size_t bytes, std::size_t align) {
    // Room first, so recording the block cannot throw once it exists.
    if (regions_.size() == regions_.capacity() ||
        by_address_.size() == by_address_.capacity()) {
      const std::size_t cap = std::max<std::size_t>(8, 2 * regions_.size());
      regions_.reserve(cap);
      by_address_.reserve(cap);
    }
    const std::size_t a = std::max(kGranule, align);
    // The plain form for malloc's alignment, as std::allocator does.
    void* p = a > __STDCPP_DEFAULT_NEW_ALIGNMENT__
                  ? ::operator new(bytes, std::align_val_t{a})
                  : ::operator new(bytes);
    const auto begin = reinterpret_cast<std::uintptr_t>(p);
    const Region r{begin, begin + bytes, a, granules_};
    granules_ += (bytes + kGranule - 1) / kGranule;
    regions_.push_back(r);
    by_address_.insert(
        std::upper_bound(by_address_.begin(), by_address_.end(), begin,
                         [](std::uintptr_t x, const Region& y) {
                           return x < y.begin;
                         }),
        r);
    return p;
  }

  std::vector<Region> regions_;     ///< allocation order; owns the blocks
  std::vector<Region> by_address_;  ///< the same regions, sorted by begin
  std::size_t granules_ = 0;
};

}  // namespace atacsim::sim
