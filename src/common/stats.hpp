// Lightweight statistics plumbing.
//
// Hot-path counters live as plain uint64_t/double fields inside each
// subsystem's own stats struct (no string lookups on the fast path). This
// header provides the small shared vocabulary for exporting them at the end
// of a run: a named (name, value) list plus merge helpers.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace atacsim {

/// A flat, ordered list of named scalar statistics for reporting.
class StatList {
 public:
  void add(std::string name, double value) {
    items_.emplace_back(std::move(name), value);
  }
  /// Appends every stat of `other`, in its order.
  void add_all(const StatList& other) {
    items_.insert(items_.end(), other.items_.begin(), other.items_.end());
  }
  /// Returns value of the first stat with this exact name, or `fallback`.
  double get(const std::string& name, double fallback = 0.0) const {
    for (const auto& [n, v] : items_)
      if (n == name) return v;
    return fallback;
  }
  bool has(const std::string& name) const {
    for (const auto& [n, v] : items_) {
      (void)v;
      if (n == name) return true;
    }
    return false;
  }
  const std::vector<std::pair<std::string, double>>& items() const {
    return items_;
  }

 private:
  std::vector<std::pair<std::string, double>> items_;
};

/// Simple online accumulator for latency-style samples.
struct Accumulator {
  std::uint64_t n = 0;
  double sum = 0.0;
  double max = 0.0;

  void sample(double x) {
    ++n;
    sum += x;
    if (x > max) max = x;
  }
  double mean() const { return n ? sum / static_cast<double>(n) : 0.0; }
  void reset() { *this = {}; }
};

}  // namespace atacsim
