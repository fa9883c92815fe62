// Declarative parameter sweeps: the paper's evaluation is a grid of
// (application x machine-parameter x traffic-parameter) studies, and every
// figure/table bench declares its grid as a SweepSpec instead of hand-rolling
// nested loops over scenario runs.
//
// A SweepAxis is a named list of labelled points, each a typed setter over
// the sweep cell (the harness Scenario for application runs, the synthetic
// traffic config for open-loop network studies). A SweepSpec expands its
// axes row-major (last axis fastest) into the full Cartesian grid;
// run_scenarios() executes the grid on the exp worker pool through
// ExperimentPlan — so cells whose simulations are identical (photonic
// flavours, core-NDD fractions) dedupe onto one run — and hands results
// back by axis coordinates.
//
// Derived metrics the figures print (normalization against a baseline cell,
// per-column geomeans) are computed here, in the report layer, by
// MetricGrid, instead of ad hoc in each bench's main().
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "exp/plan.hpp"
#include "exp/report.hpp"
#include "harness/runner.hpp"
#include "network/synthetic.hpp"

namespace atacsim::exp::sweep {

/// One cell's full configuration. Scenario sweeps mutate `scenario`;
/// synthetic-traffic sweeps mutate `scenario.mp` (the network under test)
/// and `synth` (the offered traffic).
struct CellConfig {
  harness::Scenario scenario;
  net::SyntheticConfig synth;
};

using Setter = std::function<void(CellConfig&)>;
using MetricFn = std::function<double(const harness::Outcome&)>;

/// A labelled point on an axis; `apply` writes the point's parameter value
/// into the cell.
struct AxisPoint {
  std::string label;
  Setter apply;
};

/// A named parameter axis: offered load, flit width, routing policy, ...
struct SweepAxis {
  std::string name;
  std::vector<AxisPoint> points;
};

/// Axis over application names (sets Scenario::app).
SweepAxis apps_axis(const std::vector<std::string>& names);

/// Axis over whole machine configurations (replaces Scenario::mp; apply it
/// before axes that tweak individual MachineParams fields).
SweepAxis machine_axis(
    std::vector<std::pair<std::string, MachineParams>> configs);

/// Builds an axis from raw values: `label(v)` names the point and
/// `set(cell, v)` writes it.
template <typename T, typename LabelFn, typename SetFn>
SweepAxis value_axis(std::string name, const std::vector<T>& values,
                     LabelFn label, SetFn set) {
  SweepAxis a;
  a.name = std::move(name);
  for (const T& v : values)
    a.points.push_back({label(v), [set, v](CellConfig& c) { set(c, v); }});
  return a;
}

/// Declarative grid of cells; axes expand row-major (last axis fastest), so
/// iteration order matches the nested loops the benches used to write
/// (outer loop = first axis).
class SweepSpec {
 public:
  explicit SweepSpec(CellConfig base = {}) : base_(std::move(base)) {}

  SweepSpec& axis(SweepAxis a);

  const std::vector<SweepAxis>& axes() const { return axes_; }
  std::size_t num_axes() const { return axes_.size(); }
  std::size_t num_cells() const;

  /// Flat index of the cell at the given per-axis point indices.
  std::size_t flat(const std::vector<std::size_t>& idx) const;
  /// Inverse of flat().
  std::vector<std::size_t> coords(std::size_t flat_index) const;

  /// Materializes one cell: the base config with every axis point's setter
  /// applied in axis order.
  CellConfig cell(std::size_t flat_index) const;

  const std::string& label(std::size_t axis, std::size_t point) const {
    return axes_[axis].points[point].label;
  }

 private:
  CellConfig base_;
  std::vector<SweepAxis> axes_;
};

/// Rows x cols grid of a scalar metric extracted from a 2-axis sweep
/// (rows = first axis, cols = second), with the normalization and geomean
/// reductions the paper's figures print.
class MetricGrid {
 public:
  MetricGrid(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), v_(rows * cols, 0.0) {}

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  double& at(std::size_t r, std::size_t c) { return v_[r * cols_ + c]; }
  double at(std::size_t r, std::size_t c) const { return v_[r * cols_ + c]; }

  /// Each row divided by its own value in `baseline_col` — e.g. Fig. 11
  /// normalizes every flit width against the 64-bit cell of the same
  /// benchmark.
  MetricGrid normalized_rows(std::size_t baseline_col) const;

  /// Per-column geometric mean over all rows (the figures' "geomean" row).
  std::vector<double> col_geomeans() const;

 private:
  std::size_t rows_, cols_;
  std::vector<double> v_;
};

/// Geometric mean. Non-positive entries carry no information on a log scale
/// (log(0) = -inf would poison the whole average), so they are excluded.
double geomean(const std::vector<double>& xs);

/// Results of a scenario sweep, addressable by axis coordinates. The
/// underlying PlanResult's outcomes are in flat cell order, so the sweep's
/// report serializes rows in the same order the figure's loops visit them.
class SweepResult {
 public:
  SweepResult(const SweepSpec& spec, PlanResult plan)
      : spec_(&spec), plan_(std::move(plan)) {}

  const harness::Outcome& at(const std::vector<std::size_t>& idx) const {
    return plan_.outcomes[spec_->flat(idx)];
  }
  const PlanResult& plan_result() const { return plan_; }

  /// Metric grid over a 2-axis sweep (throws on any other arity).
  MetricGrid grid(const MetricFn& m) const;

  /// The sweep's report, unnamed and untimed: the plan's jobs, cells,
  /// cache_hits and simulations, and one row per cell in flat order. A
  /// row's config is the cell's labels on every axis but "app", joined by
  /// '/' (the printed table's column heads), so when each axis labels its
  /// points apart no two rows share an (app, config) pair.
  report::Report report() const;

 private:
  const SweepSpec* spec_;
  PlanResult plan_;
};

/// Executes every cell's scenario on the exp worker pool. Cells with
/// identical scenario keys share one simulation; each consumer's energy is
/// computed under its own MachineParams.
SweepResult run_scenarios(const SweepSpec& spec, const ExecOptions& opt = {});

/// Executes every cell as an open-loop synthetic-traffic run (the network
/// model is built from the cell's Scenario::mp, the traffic from its
/// SyntheticConfig) on a worker pool of opt.jobs threads. Results are in
/// flat cell order and independent of the pool size: every cell owns its
/// model and RNG. A cell that throws (e.g. an invalid geometry) does not
/// stop the others; the first error in cell order is rethrown.
std::vector<net::SyntheticResult> run_synthetic_grid(
    const SweepSpec& spec, const ExecOptions& opt = {});

}  // namespace atacsim::exp::sweep
