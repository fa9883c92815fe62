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
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "harness/cache.hpp"
#include "harness/runner.hpp"

namespace atacsim::exp {

/// Worker-pool size: ATACSIM_JOBS if set (clamped to >= 1), else
/// std::thread::hardware_concurrency().
int default_jobs();

/// Total scenario simulations actually executed by this process through the
/// exp layer (cache hits and coalesced singleflight waiters excluded).
std::uint64_t simulations_executed();

/// Thread-safe cached run of one scenario: consults the on-disk cache,
/// coalesces concurrent misses for the same scenario key via in-process
/// singleflight, and recomputes energy for the caller's photonic flavour.
/// Sets *cache_hit (when non-null) to whether the counters came from disk.
harness::Outcome run_scenario_shared(const harness::Scenario& s,
                                     bool allow_failure = true,
                                     bool* cache_hit = nullptr);

struct ExecOptions {
  int jobs = 0;          ///< 0 = default_jobs()
  bool progress = true;  ///< live "cells done / cache hits / wall" on stderr
};

/// Threads a pool started with `opt` uses for `cells` cells: opt.jobs (or
/// default_jobs()), but never more than the cells and at least one.
int pool_size(const ExecOptions& opt, std::size_t cells);

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
  Handle add(const harness::Scenario& s, bool allow_failure = true);

  std::size_t size() const { return handles_.size(); }
  std::size_t unique_cells() const { return cells_.size(); }

  /// Executes every unique cell on a worker pool and fans results out to
  /// all handles. Throws (after all workers drain) if any cell failed and
  /// its consumer did not allow failure.
  PlanResult run(const ExecOptions& opt = {}) const;

 private:
  struct Cell {
    harness::Scenario s;  ///< canonical scenario for the simulation
  };
  struct HandleEntry {
    harness::Scenario s;  ///< consumer's scenario (flavour may differ)
    bool allow_failure;
    std::size_t cell;
  };
  std::vector<Cell> cells_;
  std::vector<HandleEntry> handles_;
  std::unordered_map<std::string, std::size_t> cell_by_key_;
};

}  // namespace atacsim::exp
