#include "core/task.hpp"

#include <array>
#include <new>

#ifdef __SANITIZE_ADDRESS__
#include <sanitizer/asan_interface.h>
#define ATACSIM_POISON(p, n) ASAN_POISON_MEMORY_REGION(p, n)
#define ATACSIM_UNPOISON(p, n) ASAN_UNPOISON_MEMORY_REGION(p, n)
#else
#define ATACSIM_POISON(p, n) ((void)(p), (void)(n))
#define ATACSIM_UNPOISON(p, n) ((void)(p), (void)(n))
#endif

namespace atacsim::core::detail {
namespace {

/// Frames are recycled in 16-byte size classes up to 2 KiB; a larger frame
/// comes from the global heap and goes back to it.
constexpr std::size_t kClassBytes = 16;
constexpr std::size_t kClasses = 128;

/// A parked frame's first bytes link it to the next one of its class.
struct FreeFrame {
  FreeFrame* next;
};

/// Set once the thread's lists are freed: a frame destroyed after that (a
/// Task a static object destroys at exit) goes straight back to the heap.
/// Trivially destructible, so it can still be read then.
thread_local bool t_closed = false;

/// One thread's free lists, one per size class; their blocks are freed
/// when the thread exits.
struct FreeLists {
  std::array<FreeFrame*, kClasses> head{};
  ~FreeLists() {
    t_closed = true;
    for (FreeFrame*& h : head)
      while (FreeFrame* f = h) {
        ATACSIM_UNPOISON(f, sizeof(FreeFrame));
        h = f->next;
        ::operator delete(f);
      }
  }
};
thread_local FreeLists t_lists;

}  // namespace

void* allocate_frame(std::size_t n) {
  const std::size_t c = (n - 1) / kClassBytes;
  if (c >= kClasses) return ::operator new(n);
  // Whole classes only, so any thread may park the frame.
  if (!t_closed) {
    FreeFrame*& head = t_lists.head[c];
    if (FreeFrame* f = head) {
      ATACSIM_UNPOISON(f, (c + 1) * kClassBytes);
      head = f->next;
      return f;
    }
  }
  return ::operator new((c + 1) * kClassBytes);
}

void free_frame(void* p, std::size_t n) noexcept {
  const std::size_t c = (n - 1) / kClassBytes;
  if (c >= kClasses || t_closed) {
    ::operator delete(p);
    return;
  }
  FreeFrame*& head = t_lists.head[c];
  head = ::new (p) FreeFrame{head};
  // A parked frame is off limits until it is handed out again.
  ATACSIM_POISON(p, (c + 1) * kClassBytes);
}

}  // namespace atacsim::core::detail
