#include "bench/registry.hpp"

#include <algorithm>
#include <stdexcept>

namespace atacsim::bench {

bool glob_match(const std::string& pattern, const std::string& text) {
  // Iterative wildcard match with backtracking to the last '*'.
  std::size_t p = 0, t = 0;
  std::size_t star = std::string::npos, star_t = 0;
  while (t < text.size()) {
    if (p < pattern.size() &&
        (pattern[p] == '?' || pattern[p] == text[t])) {
      ++p;
      ++t;
    } else if (p < pattern.size() && pattern[p] == '*') {
      star = p++;
      star_t = t;
    } else if (star != std::string::npos) {
      p = star + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '*') ++p;
  return p == pattern.size();
}

Registry& Registry::instance() {
  static Registry r;
  return r;
}

void Registry::add(Entry e) {
  for (const auto& existing : entries_)
    if (existing.name == e.name)
      throw std::logic_error("duplicate bench entry: " + e.name);
  entries_.push_back(std::move(e));
}

std::vector<const Entry*> Registry::all() const {
  std::vector<const Entry*> out;
  out.reserve(entries_.size());
  for (const auto& e : entries_) out.push_back(&e);
  std::sort(out.begin(), out.end(),
            [](const Entry* a, const Entry* b) { return a->name < b->name; });
  return out;
}

std::vector<const Entry*> Registry::match(const std::string& glob) const {
  std::vector<const Entry*> out;
  for (const Entry* e : all())
    if (glob_match(glob, e->name)) out.push_back(e);
  return out;
}

Registrar::Registrar(const char* name, const char* description, BenchFn fn) {
  Registry::instance().add(Entry{name, description, fn});
}

}  // namespace atacsim::bench
