#include "exp/sweep.hpp"

#include <cmath>
#include <stdexcept>

#include "network/atac_model.hpp"
#include "network/mesh_geom.hpp"

namespace atacsim::exp::sweep {

namespace {
constexpr const char* kAppAxis = "app";
}  // namespace

SweepAxis apps_axis(const std::vector<std::string>& names) {
  SweepAxis a;
  a.name = kAppAxis;
  for (const auto& n : names)
    a.points.push_back({n, [n](CellConfig& c) { c.scenario.app = n; }});
  return a;
}

SweepAxis machine_axis(
    std::vector<std::pair<std::string, MachineParams>> configs) {
  SweepAxis a;
  a.name = "machine";
  for (auto& [label, mp] : configs) {
    const MachineParams m = mp;
    a.points.push_back({label, [m](CellConfig& c) { c.scenario.mp = m; }});
  }
  return a;
}

SweepSpec& SweepSpec::axis(SweepAxis a) {
  if (a.points.empty())
    throw std::invalid_argument("sweep axis '" + a.name + "' has no points");
  axes_.push_back(std::move(a));
  return *this;
}

std::size_t SweepSpec::num_cells() const {
  std::size_t n = 1;
  for (const auto& a : axes_) n *= a.points.size();
  return axes_.empty() ? 0 : n;
}

std::size_t SweepSpec::flat(const std::vector<std::size_t>& idx) const {
  if (idx.size() != axes_.size())
    throw std::invalid_argument("sweep index arity mismatch");
  std::size_t f = 0;
  for (std::size_t a = 0; a < axes_.size(); ++a) {
    if (idx[a] >= axes_[a].points.size())
      throw std::out_of_range("sweep index out of range on axis " +
                              axes_[a].name);
    f = f * axes_[a].points.size() + idx[a];
  }
  return f;
}

std::vector<std::size_t> SweepSpec::coords(std::size_t flat_index) const {
  std::vector<std::size_t> idx(axes_.size(), 0);
  for (std::size_t a = axes_.size(); a-- > 0;) {
    const std::size_t n = axes_[a].points.size();
    idx[a] = flat_index % n;
    flat_index /= n;
  }
  return idx;
}

CellConfig SweepSpec::cell(std::size_t flat_index) const {
  const auto idx = coords(flat_index);
  CellConfig c = base_;
  for (std::size_t a = 0; a < axes_.size(); ++a)
    axes_[a].points[idx[a]].apply(c);
  return c;
}

MetricGrid MetricGrid::normalized_rows(std::size_t baseline_col) const {
  MetricGrid out(rows_, cols_);
  for (std::size_t r = 0; r < rows_; ++r) {
    const double base = at(r, baseline_col);
    for (std::size_t c = 0; c < cols_; ++c) out.at(r, c) = at(r, c) / base;
  }
  return out;
}

std::vector<double> MetricGrid::col_geomeans() const {
  std::vector<double> gm(cols_, 0.0);
  for (std::size_t c = 0; c < cols_; ++c) {
    std::vector<double> col(rows_);
    for (std::size_t r = 0; r < rows_; ++r) col[r] = at(r, c);
    gm[c] = geomean(col);
  }
  return gm;
}

double geomean(const std::vector<double>& xs) {
  double logsum = 0;
  std::size_t n = 0;
  for (double x : xs) {
    if (x > 0.0 && std::isfinite(x)) {
      logsum += std::log(x);
      ++n;
    }
  }
  return n ? std::exp(logsum / static_cast<double>(n)) : 0.0;
}

MetricGrid SweepResult::grid(const MetricFn& m) const {
  if (spec_->num_axes() != 2)
    throw std::logic_error("SweepResult::grid requires exactly 2 axes");
  const std::size_t rows = spec_->axes()[0].points.size();
  const std::size_t cols = spec_->axes()[1].points.size();
  MetricGrid g(rows, cols);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c)
      g.at(r, c) = m(plan_.outcomes[r * cols + c]);
  return g;
}

report::Report SweepResult::report() const {
  report::Report rep;
  rep.jobs = plan_.jobs;
  rep.cells = plan_.cells;
  rep.cache_hits = plan_.cache_hits;
  rep.simulations = plan_.simulations;
  rep.rows.reserve(plan_.outcomes.size());
  for (std::size_t i = 0; i < plan_.outcomes.size(); ++i) {
    const auto idx = spec_->coords(i);
    std::string config;
    for (std::size_t a = 0; a < idx.size(); ++a) {
      if (spec_->axes()[a].name == kAppAxis) continue;
      if (!config.empty()) config += '/';
      config += spec_->label(a, idx[a]);
    }
    const auto& o = plan_.outcomes[i];
    rep.rows.push_back({o.app, std::move(config), o.finished, o.verify_msg,
                        report::outcome_stats(o)});
  }
  return rep;
}

SweepResult run_scenarios(const SweepSpec& spec, const ExecOptions& opt) {
  ExperimentPlan plan;
  const std::size_t n = spec.num_cells();
  for (std::size_t i = 0; i < n; ++i) plan.add(spec.cell(i).scenario);
  return SweepResult(spec, plan.run(opt));
}

std::vector<net::SyntheticResult> run_synthetic_grid(const SweepSpec& spec,
                                                     const ExecOptions& opt) {
  std::vector<net::SyntheticResult> results(spec.num_cells());
  for_each_cell(results.size(), opt, [&](int, std::size_t i) {
    const CellConfig c = spec.cell(i);
    const auto model = net::make_network(c.scenario.mp);
    results[i] =
        net::run_synthetic(*model, net::MeshGeom(c.scenario.mp), c.synth);
  });
  return results;
}

}  // namespace atacsim::exp::sweep
