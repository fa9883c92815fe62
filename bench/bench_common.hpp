// Shared scaffolding for the registry-driven figure benches. Machine
// builders, scale/mesh env handling, the registry and the step that
// finishes every entry's report live in src/bench; derived-metric math
// (normalization, geomeans) and sweep reports live in exp::sweep.
#pragma once

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

/// Marks a hand-built report row failed when a scenario run it summarizes
/// did not finish or verify, so run_entry fails the entry on it.
inline void fold_failure(exp::report::Row& row, const Outcome& o) {
  row.finished = row.finished && o.finished;
  if (o.verify_msg.empty()) return;
  if (!row.verify_msg.empty()) row.verify_msg += "; ";
  row.verify_msg += o.app + " on " + o.config + ": " + o.verify_msg;
}

}  // namespace atacsim::bench
