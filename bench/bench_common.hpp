// Shared scaffolding for the registry-driven figure benches: worker-pool
// options for the exp sweep engine. Machine builders, scale/mesh env
// handling, report emission and the registry live in src/bench;
// derived-metric math (normalization, geomeans) lives in exp::sweep.
#pragma once

#include <chrono>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench/args.hpp"
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

/// Worker-pool options from the driver context.
inline exp::ExecOptions exec_options(const Context& ctx) {
  exp::ExecOptions opt;
  opt.jobs = ctx.jobs;
  return opt;
}

/// Host seconds since `t0`: the wall_seconds of a hand-built report.
inline double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Runs a scenario sweep on the worker pool.
inline exp::sweep::SweepResult run_sweep(const exp::sweep::SweepSpec& spec,
                                         const Context& ctx) {
  return exp::sweep::run_scenarios(spec, exec_options(ctx));
}

/// Marks a hand-built report row failed when a scenario run it summarizes
/// did not finish or verify, so emit_report fails the entry on it.
inline void fold_failure(exp::report::Row& row, const Outcome& o) {
  row.finished = row.finished && o.finished;
  if (o.verify_msg.empty()) return;
  if (!row.verify_msg.empty()) row.verify_msg += "; ";
  row.verify_msg += o.app + " on " + o.config + ": " + o.verify_msg;
}

}  // namespace atacsim::bench
