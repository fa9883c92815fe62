// Bench registry: every paper figure/table/ablation registers a name, a
// one-line description, and its run function; the unified `atacsim-bench`
// driver lists, filters (shell-style globs) and executes entries. Entries
// self-register at static-init time via the ATACSIM_BENCH macro in each
// figure's translation unit, so linking a figure into the driver is all it
// takes to appear in `--list`.
//
// An entry prints its table and returns its report rows; run_entry
// (bench/common.hpp) names, times, writes and judges the report, then
// checks the entry's claims, the paper's statements about that figure,
// against those rows.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "exp/plan.hpp"
#include "exp/report.hpp"

namespace atacsim::bench {

using BenchFn = exp::report::Report (*)(const exp::ExecOptions&);

/// A claim's check result: whether it holds, and the values it read.
struct Verdict {
  bool holds = false;
  std::string measured;
};

/// One statement of the paper, checked against the rows its entry returns
/// (read through bench::stat). `known_failure` is empty for a claim that
/// holds on the paper machine at scale 1; otherwise it says why the claim
/// fails there and where that is tracked, and the claim is expected to
/// fail. It quotes no measured value: the Verdict's `measured` prints
/// those on the same claim line.
struct Claim {
  std::string text;
  Verdict (*check)(const exp::report::Report&) = nullptr;
  std::string known_failure{};
};

struct Entry {
  std::string name;         ///< registry key, e.g. "fig08_edp"
  std::string description;  ///< one-line summary shown by --list
  BenchFn fn = nullptr;
  std::vector<Claim> claims{};
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
  Registrar(const char* name, const char* description, BenchFn fn,
            std::vector<Claim> claims);
};

#define ATACSIM_BENCH(name, description, fn, claims)              \
  static const ::atacsim::bench::Registrar atacsim_bench_reg_##fn{ \
      name, description, fn, claims}

}  // namespace atacsim::bench
