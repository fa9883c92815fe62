// Structured reporting for experiment results: serializes Outcomes (as flat
// StatLists) to JSON and CSV so bench output is machine-readable in
// addition to the printed tables.
//
// JSON schema ("atacsim-exp-report-v1"):
//   { "name": ..., "schema": ..., "jobs": N, "cells": N, "cache_hits": N,
//     "simulations": N, "wall_seconds": S,
//     "outcomes": [ { "app": ..., "config": ..., "finished": bool,
//                     "verify_msg": ..., "stats": { name: value, ... } } ] }
// CSV: one row per outcome; columns app, config, finished, verify_msg, then
// every stat name (same order for every row).
//
// Two kinds of report fit the schema:
//   * scenario reports (Report::from_plan) — one row per plan outcome,
//     stats = the full counter/energy export of outcome_stats();
//   * figure reports (rows built by the bench itself) — one row per
//     printed table row for figures whose cells are not scenario outcomes
//     (synthetic sweeps, area models, derived tables). Rows must share one
//     stat-name set; the first row fixes the CSV column order.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "exp/plan.hpp"
#include "harness/runner.hpp"

namespace atacsim::exp::report {

/// Flattens one outcome into a named stat list: run counters, energy
/// breakdown, and the paper's derived metrics (seconds, EDP, ...).
StatList outcome_stats(const harness::Outcome& o);

/// One serialized report row ("outcome" in the v1 schema).
struct Row {
  std::string app;
  std::string config;
  bool finished = true;
  std::string verify_msg;
  StatList stats;
};

/// A complete report: execution metadata plus rows.
struct Report {
  std::string name;
  int jobs = 1;
  std::size_t cells = 0;
  std::size_t cache_hits = 0;
  std::size_t simulations = 0;
  double wall_seconds = 0;
  std::vector<Row> rows;

  /// Scenario report: one row per plan outcome, in plan-handle order.
  static Report from_plan(const std::string& name, const PlanResult& r);
};

void write_json(std::ostream& os, const Report& r);
void write_csv(std::ostream& os, const Report& r);

/// Report directory: $ATACSIM_REPORT_DIR if set, else "bench_reports".
std::string report_dir();

/// Writes <dir>/<name>.json and <dir>/<name>.csv (creating the directory);
/// returns the paths written, empty on I/O failure.
std::vector<std::string> write_report(const Report& r);

}  // namespace atacsim::exp::report
