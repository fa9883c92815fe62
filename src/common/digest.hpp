// FNV-1a digest of simulated statistics: one 64-bit fingerprint that tells
// two runs apart. Each value folds in as its eight bytes, least significant
// first, so a digest depends only on the values, never on the host.
#pragma once

#include <cstdint>

#include "common/counters.hpp"

namespace atacsim {

class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 1099511628211ull;
    }
  }

  /// Each counter of the block's list, in list order.
  template <CounterBlock T>
  void add(const T& block) {
    for_each_counter([this](const char*, std::uint64_t v) { add(v); },
                     block);
  }

  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

}  // namespace atacsim
