// Process-wide heap allocation counter (see alloc_count.cpp).
#pragma once

#include <cstdint>

namespace perfbench {

/// Calls to global operator new so far, summed over all threads. Threads
/// that have exited keep their contribution.
std::uint64_t allocations();

}  // namespace perfbench
