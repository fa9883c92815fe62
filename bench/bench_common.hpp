// Shared scaffolding for the registry-driven figure benches. Machine
// builders, scale/mesh env handling, the registry and the step that
// finishes every entry's report live in src/bench; derived-metric math
// (normalization, geomeans) and sweep reports live in exp::sweep; the
// helpers below keep each entry's claims short.
#pragma once

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "bench/registry.hpp"
#include "common/table.hpp"
#include "exp/plan.hpp"
#include "exp/report.hpp"
#include "exp/sweep.hpp"
#include "harness/runner.hpp"

namespace atacsim::bench {

using harness::Outcome;

// Geomean semantics are part of the printed figures; the one true
// implementation lives with the other derived-metric math in exp::sweep.
using exp::sweep::geomean;

using exp::report::Report;

/// stat `s` of row (app, num) over the same stat of row (app, den).
inline double ratio(const Report& r, const std::string& app,
                    const std::string& num, const std::string& den,
                    const std::string& s) {
  return stat(r, app, num, s) / stat(r, app, den, s);
}

/// Geomean over `apps` of ratio(r, app, num, den, s).
inline double geomean_ratio(const Report& r,
                            const std::vector<std::string>& apps,
                            const std::string& num, const std::string& den,
                            const std::string& s) {
  std::vector<double> xs;
  for (const auto& app : apps) xs.push_back(ratio(r, app, num, den, s));
  return geomean(xs);
}

/// Sum over `apps` of stat `s` in config `config`.
inline double sum(const Report& r, const std::vector<std::string>& apps,
                  const std::string& config, const std::string& s) {
  double total = 0;
  for (const auto& app : apps) total += stat(r, app, config, s);
  return total;
}

/// Names in ascending order of a claim's key, and that order with each
/// name's value for the claim's measured text.
struct Ranking {
  std::vector<std::string> names;
  std::string listing;
};

/// `names` ranked by `key(name)`, lowest first, ties in their given order;
/// values print with `digits` after the point.
template <class Key>
Ranking rank(std::vector<std::string> names, Key key, int digits = 2) {
  std::stable_sort(names.begin(), names.end(),
                   [&key](const std::string& a, const std::string& b) {
                     return key(a) < key(b);
                   });
  Ranking k{names, "lowest first:"};
  for (const auto& n : names)
    k.listing += " " + n + " " + Table::num(key(n), digits);
  return k;
}

/// A paper number's loose bracket: `measured` within a factor of 1.5 of
/// `paper` either way. Brackets come from the paper, never from a run.
inline bool near_paper(double measured, double paper) {
  return measured >= paper / 1.5 && measured <= paper * 1.5;
}

/// A measured value for a claim line, `digits` after the point.
inline std::string num(double v, int digits = 2) {
  return Table::num(v, digits);
}

/// Marks a hand-built report row failed when a scenario run it summarizes
/// did not finish or verify, so run_entry fails the entry on it.
inline void fold_failure(exp::report::Row& row, const Outcome& o) {
  row.finished = row.finished && o.finished;
  if (o.verify_msg.empty()) return;
  if (!row.verify_msg.empty()) row.verify_msg += "; ";
  row.verify_msg += o.app + " on " + o.config + ": " + o.verify_msg;
}

}  // namespace atacsim::bench
