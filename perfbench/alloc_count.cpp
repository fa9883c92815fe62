// Replacement global operator new/delete that counts heap allocations made
// anywhere in this process, on any thread. Each thread bumps its own
// cache-line-sized slot, so the exp worker pool does not contend on one
// counter; reading sums the slots.
#include "alloc_count.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

constexpr unsigned kSlots = 64;
struct alignas(64) Slot {
  std::atomic<std::uint64_t> n{0};
};
Slot g_slots[kSlots];
std::atomic<unsigned> g_next_slot{0};
thread_local int t_slot = -1;

void count_one() {
  if (t_slot < 0)
    t_slot = static_cast<int>(
        g_next_slot.fetch_add(1, std::memory_order_relaxed) % kSlots);
  g_slots[t_slot].n.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

namespace perfbench {

std::uint64_t allocations() {
  std::uint64_t total = 0;
  for (const Slot& s : g_slots) total += s.n.load(std::memory_order_relaxed);
  return total;
}

}  // namespace perfbench

// The library's operator new[] and nothrow forms forward to this one.
void* operator new(std::size_t n) {
  count_one();
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
