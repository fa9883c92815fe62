// Bench registry: every paper figure/table/ablation registers a name, a
// one-line description, and its run function; the unified `atacsim-bench`
// driver lists, filters (shell-style globs) and executes entries. Entries
// self-register at static-init time via the ATACSIM_BENCH macro in each
// figure's translation unit, so linking a figure into the driver is all it
// takes to appear in `--list`.
//
// An entry prints its table and returns its report rows; run_entry
// (bench/common.hpp) names, times, writes and judges the report.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "exp/plan.hpp"
#include "exp/report.hpp"

namespace atacsim::bench {

using BenchFn = exp::report::Report (*)(const exp::ExecOptions&);

struct Entry {
  std::string name;         ///< registry key, e.g. "fig08_edp"
  std::string description;  ///< one-line summary shown by --list
  BenchFn fn = nullptr;
};

/// Shell-style glob match supporting '*' (any run) and '?' (any one
/// character); no character classes. An empty pattern matches nothing.
bool glob_match(const std::string& pattern, const std::string& text);

/// Process-wide registry, ordered by name.
class Registry {
 public:
  static Registry& instance();

  /// Registers an entry; throws std::logic_error on a duplicate name.
  void add(Entry e);

  std::size_t size() const { return entries_.size(); }
  /// All entries, sorted by name.
  std::vector<const Entry*> all() const;
  /// Entries whose name matches the glob, sorted by name.
  std::vector<const Entry*> match(const std::string& glob) const;

 private:
  std::vector<Entry> entries_;
};

struct Registrar {
  Registrar(const char* name, const char* description, BenchFn fn);
};

#define ATACSIM_BENCH(name, description, fn)                      \
  static const ::atacsim::bench::Registrar atacsim_bench_reg_##fn{ \
      name, description, fn}

}  // namespace atacsim::bench
