// Parallel experiment execution: a declarative plan of (app x machine x
// scale) scenario cells, executed by a fixed-size worker pool over the
// shared on-disk scenario cache.
//
// The plan dedupes cells whose simulations are identical (same
// harness::scenario_key — notably the photonic flavours of Table IV, which
// change only the energy model): the shared run executes once and fans out
// to every consumer, each of which gets its energy recomputed under its own
// MachineParams. Results are returned indexed by the handle that add()
// produced, so output ordering is deterministic regardless of which worker
// finished first.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "harness/cache.hpp"
#include "harness/runner.hpp"

namespace atacsim::exp {

struct ExecOptions {
  int jobs = 0;          ///< 0 = one per hardware thread
  bool progress = true;  ///< live "cells done / cache hits / wall" on stderr
};

/// Threads a pool started with `opt` uses for `cells` cells: opt.jobs (or
/// std::thread::hardware_concurrency() when it is 0), but never more than
/// the cells and at least one.
int pool_size(const ExecOptions& opt, std::size_t cells);

/// The exp worker pool: calls fn(worker, i) once for every cell i in
/// [0, cells) on pool_size(opt, cells) threads (inline on the caller's
/// thread when one suffices) and returns that pool size. Workers claim
/// cells in index order; `worker` is the claiming thread's index in
/// [0, pool size). A cell that throws does not stop the others: once every
/// worker has drained, the first exception in cell order is rethrown.
int for_each_cell(std::size_t cells, const ExecOptions& opt,
                  const std::function<void(int worker, std::size_t i)>& fn);

struct PlanResult {
  /// One outcome per add() call, in add() order.
  std::vector<harness::Outcome> outcomes;
  std::size_t cells = 0;        ///< unique simulations the plan needed
  std::size_t cache_hits = 0;   ///< unique cells served from the disk cache
  std::size_t simulations = 0;  ///< unique cells actually simulated
  int jobs = 1;
  double wall_seconds = 0;
};

class ExperimentPlan {
 public:
  using Handle = std::size_t;

  /// Registers a scenario cell; returns the index of its outcome in
  /// PlanResult::outcomes. Cells with identical scenario keys share one
  /// simulation.
  Handle add(const harness::Scenario& s);

  std::size_t size() const { return handles_.size(); }
  std::size_t unique_cells() const { return cells_.size(); }

  /// Executes every unique cell on the worker pool and fans results out to
  /// all handles. A cell that does not finish or verify is returned as is
  /// (Outcome::finished / verify_msg); an exception raised by a simulation
  /// is rethrown after all workers drain, first failing cell in plan order.
  PlanResult run(const ExecOptions& opt = {}) const;

 private:
  struct Cell {
    harness::Scenario s;  ///< canonical scenario for the simulation
  };
  struct HandleEntry {
    harness::Scenario s;  ///< consumer's scenario (flavour may differ)
    std::size_t cell;
  };
  std::vector<Cell> cells_;
  std::vector<HandleEntry> handles_;
  std::unordered_map<std::string, std::size_t> cell_by_key_;
};

}  // namespace atacsim::exp
