#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/report.hpp"
#include "exp/sweep.hpp"
#include "harness/cache.hpp"

namespace atacsim::exp::sweep {
namespace {

namespace fs = std::filesystem;

/// Scoped private cache directory so tests never touch the shared cache.
class ScopedCacheDir {
 public:
  explicit ScopedCacheDir(const char* tag)
      : dir_(fs::temp_directory_path() / tag) {
    fs::remove_all(dir_);
    setenv("ATACSIM_CACHE", dir_.c_str(), 1);
  }
  ~ScopedCacheDir() {
    unsetenv("ATACSIM_CACHE");
    fs::remove_all(dir_);
  }

 private:
  fs::path dir_;
};

CellConfig small_base() {
  CellConfig c;
  c.scenario.mp = MachineParams::small(8, 2);
  c.scenario.scale = 0.05;
  return c;
}

SweepSpec two_axis_spec() {
  SweepSpec spec(small_base());
  spec.axis(apps_axis({"radix", "fft", "lu_contig"}))
      .axis(value_axis<int>(
          "flit_bits", {32, 64},
          [](int w) { return std::to_string(w) + "-bit"; },
          [](CellConfig& c, int w) { c.scenario.mp.flit_bits = w; }));
  return spec;
}

TEST(SweepSpec, ExpandsRowMajorLastAxisFastest) {
  const auto spec = two_axis_spec();
  EXPECT_EQ(spec.num_axes(), 2u);
  EXPECT_EQ(spec.num_cells(), 6u);

  // Cell order must match the nested loops the benches used to write:
  // outer loop = first axis (apps), inner = second (flit width).
  const std::vector<std::pair<std::string, int>> want = {
      {"radix", 32}, {"radix", 64},     {"fft", 32},
      {"fft", 64},   {"lu_contig", 32}, {"lu_contig", 64},
  };
  for (std::size_t i = 0; i < want.size(); ++i) {
    const auto c = spec.cell(i);
    EXPECT_EQ(c.scenario.app, want[i].first) << "cell " << i;
    EXPECT_EQ(c.scenario.mp.flit_bits, want[i].second) << "cell " << i;
    // The base config's fields survive every axis application.
    EXPECT_EQ(c.scenario.mp.num_cores, 64);
    EXPECT_DOUBLE_EQ(c.scenario.scale, 0.05);
  }
}

TEST(SweepSpec, FlatAndCoordsAreInverses) {
  const auto spec = two_axis_spec();
  for (std::size_t i = 0; i < spec.num_cells(); ++i) {
    const auto idx = spec.coords(i);
    EXPECT_EQ(spec.flat(idx), i);
  }
  EXPECT_EQ(spec.flat({1, 1}), 3u);
  EXPECT_EQ(spec.label(0, 1), "fft");
  EXPECT_EQ(spec.label(1, 0), "32-bit");
  EXPECT_THROW(spec.flat({0}), std::invalid_argument);
  EXPECT_THROW(spec.flat({0, 5}), std::out_of_range);
}

TEST(SweepSpec, RejectsEmptyAxis) {
  SweepSpec spec;
  EXPECT_THROW(spec.axis(SweepAxis{"empty", {}}), std::invalid_argument);
  EXPECT_EQ(spec.num_cells(), 0u);
}

TEST(SweepSpec, MachineAxisReplacesWholeMachine) {
  auto atac = MachineParams::small(8, 2);
  auto emesh = atac;
  emesh.network = NetworkKind::kEMeshPure;
  SweepSpec spec(small_base());
  spec.axis(machine_axis({{"A", atac}, {"E", emesh}}));
  EXPECT_EQ(spec.cell(0).scenario.mp.network, NetworkKind::kAtacPlus);
  EXPECT_EQ(spec.cell(1).scenario.mp.network, NetworkKind::kEMeshPure);
}

TEST(MetricGrid, NormalizedRowsAgainstBaselineColumn) {
  // The Fig. 11 shape: each row normalized to its own 64-bit cell (col 2).
  MetricGrid g(2, 4);
  const double row0[] = {10, 8, 4, 3};
  const double row1[] = {20, 10, 5, 4};
  for (std::size_t c = 0; c < 4; ++c) {
    g.at(0, c) = row0[c];
    g.at(1, c) = row1[c];
  }
  const auto n = g.normalized_rows(2);
  EXPECT_DOUBLE_EQ(n.at(0, 0), 10.0 / 4.0);
  EXPECT_DOUBLE_EQ(n.at(0, 2), 1.0);
  EXPECT_DOUBLE_EQ(n.at(1, 0), 4.0);
  EXPECT_DOUBLE_EQ(n.at(1, 3), 4.0 / 5.0);
  // The baseline column is exactly 1 for every row.
  for (std::size_t r = 0; r < 2; ++r) EXPECT_DOUBLE_EQ(n.at(r, 2), 1.0);
}

TEST(MetricGrid, ColGeomeansMatchDirectComputation) {
  MetricGrid g(2, 2);
  g.at(0, 0) = 2.0;
  g.at(1, 0) = 8.0;
  g.at(0, 1) = 3.0;
  g.at(1, 1) = 27.0;
  const auto gm = g.col_geomeans();
  EXPECT_NEAR(gm[0], 4.0, 1e-12);
  EXPECT_NEAR(gm[1], 9.0, 1e-12);
}

TEST(Geomean, ExcludesNonPositiveAndNonFinite) {
  EXPECT_DOUBLE_EQ(geomean({}), 0.0);
  EXPECT_DOUBLE_EQ(geomean({0.0, -1.0}), 0.0);
  EXPECT_NEAR(geomean({2.0, 8.0, 0.0}), 4.0, 1e-12);  // zero ignored
  EXPECT_NEAR(geomean({5.0}), 5.0, 1e-12);
}

TEST(SweepScenarios, EnergyOnlyAxesDedupeOntoOneSimulation) {
  ScopedCacheDir cache("atacsim_sweep_dedupe");
  auto def = MachineParams::small(8, 2);
  auto cons = def;
  cons.photonics = PhotonicFlavor::kCons;
  SweepSpec spec(small_base());
  spec.axis(apps_axis({"radix"}))
      .axis(machine_axis({{"ATAC+", def}, {"ATAC+(Cons)", cons}}));

  ExecOptions opt;
  opt.jobs = 2;
  opt.progress = false;
  const auto res = run_scenarios(spec, opt);
  // Photonic flavour is energy-only: one simulation served both cells.
  EXPECT_EQ(res.plan_result().cells, 1u);
  EXPECT_EQ(res.at({0, 0}).run.completion_cycles,
            res.at({0, 1}).run.completion_cycles);
  EXPECT_GT(res.at({0, 1}).energy.laser, res.at({0, 0}).energy.laser);
}

/// Zeroes every per-row "wall_seconds" stat: host timing is the one
/// legitimate difference between pool sizes.
void strip_wall_seconds(report::Report& rep) {
  for (auto& row : rep.rows) {
    StatList cleaned;
    for (const auto& [n, v] : row.stats.items())
      cleaned.add(n, n == "wall_seconds" ? 0.0 : v);
    row.stats = cleaned;
  }
}

TEST(SweepScenarios, ReportIsIdenticalAcrossPoolSizes) {
  SweepSpec spec(small_base());
  spec.axis(apps_axis({"radix", "fft", "dynamic_graph"}))
      .axis(value_axis<int>(
          "flit_bits", {32, 64}, [](int w) { return std::to_string(w); },
          [](CellConfig& c, int w) { c.scenario.mp.flit_bits = w; }));

  auto serialized = [&](int jobs, const char* tag) {
    ScopedCacheDir cache(tag);
    ExecOptions opt;
    opt.jobs = jobs;
    opt.progress = false;
    const auto res = run_scenarios(spec, opt);
    auto rep = res.report();
    // jobs and host timing legitimately differ between pool sizes; the
    // simulated state must not.
    rep.jobs = 0;
    strip_wall_seconds(rep);
    std::ostringstream js, cs;
    report::write_json(js, rep);
    report::write_csv(cs, rep);
    return js.str() + "\n---\n" + cs.str();
  };
  EXPECT_EQ(serialized(1, "atacsim_sweep_det1"),
            serialized(8, "atacsim_sweep_det8"));
}

TEST(SweepScenarios, ReportNamesEachRowByItsCell) {
  ScopedCacheDir cache("atacsim_sweep_rowcfg");
  struct Policy {
    const char* name;
    RoutingPolicy pol;
    int r;
  };
  CellConfig base = small_base();
  base.scenario.mp.network = NetworkKind::kAtacPlus;
  SweepSpec spec(base);
  spec.axis(apps_axis({"radix", "fft"}))
      .axis(value_axis<Policy>(
          "routing",
          {{"Cluster", RoutingPolicy::kCluster, 0},
           {"Distance-5", RoutingPolicy::kDistance, 5}},
          [](const Policy& p) { return std::string(p.name); },
          [](CellConfig& c, const Policy& p) {
            c.scenario.mp.routing = p.pol;
            c.scenario.mp.r_thres = p.r;
          }));
  ExecOptions opt;
  opt.progress = false;
  const auto res = run_scenarios(spec, opt);
  const auto rep = res.report();
  EXPECT_EQ(rep.cells, res.plan_result().cells);
  EXPECT_EQ(rep.simulations + rep.cache_hits, rep.cells);
  EXPECT_EQ(rep.jobs, res.plan_result().jobs);
  ASSERT_EQ(rep.rows.size(), 4u);
  // Row order is flat cell order; the config is the routing label, where
  // the machine's own name (ATAC+) would repeat for both policies.
  const std::vector<std::pair<std::string, std::string>> want = {
      {"radix", "Cluster"},
      {"radix", "Distance-5"},
      {"fft", "Cluster"},
      {"fft", "Distance-5"}};
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(rep.rows[i].app, want[i].first) << i;
    EXPECT_EQ(rep.rows[i].config, want[i].second) << i;
    EXPECT_TRUE(rep.rows[i].finished) << i;
    EXPECT_EQ(rep.rows[i].stats.get("completion_cycles"),
              static_cast<double>(res.plan_result().outcomes[i]
                                      .run.completion_cycles))
        << i;
  }
}

TEST(SweepSynthetic, GridIsIndependentOfPoolSize) {
  CellConfig base;
  base.scenario.mp = MachineParams::small(8, 2);
  base.synth.warmup_cycles = 500;
  base.synth.measure_cycles = 2000;
  SweepSpec spec(base);
  spec.axis(value_axis<double>(
      "offered_load", {0.01, 0.05, 0.20},
      [](double v) { return std::to_string(v); },
      [](CellConfig& c, double v) { c.synth.offered_load = v; }));

  ExecOptions serial, pooled;
  serial.jobs = 1;
  pooled.jobs = 8;
  const auto a = run_synthetic_grid(spec, serial);
  const auto b = run_synthetic_grid(spec, pooled);
  ASSERT_EQ(a.size(), 3u);
  ASSERT_EQ(b.size(), 3u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].avg_latency_cycles, b[i].avg_latency_cycles) << i;
    EXPECT_EQ(a[i].packets_measured, b[i].packets_measured) << i;
  }
  // Higher load must not lower measured traffic: sanity on cell ordering.
  EXPECT_GT(a[2].packets_measured, a[0].packets_measured);
}

TEST(SweepSynthetic, InvalidGeometryThrowsInsteadOfCrashingTheWorkers) {
  // A cluster width of 3 does not divide the 8-wide mesh: the cell must
  // fail validation on its worker thread and the error must reach the
  // caller, not terminate the process.
  CellConfig base;
  base.scenario.mp = MachineParams::small(8, 2);
  base.synth.warmup_cycles = 100;
  base.synth.measure_cycles = 200;
  SweepSpec spec(base);
  spec.axis(value_axis<int>(
      "cluster_width", {2, 3}, [](int v) { return std::to_string(v); },
      [](CellConfig& c, int v) { c.scenario.mp.cluster_width = v; }));

  ExecOptions pooled;
  pooled.jobs = 2;
  EXPECT_THROW(run_synthetic_grid(spec, pooled), std::invalid_argument);
}

}  // namespace
}  // namespace atacsim::exp::sweep
