// Fig. 13: energy-delay product of the cluster-based vs distance-based
// unicast routing protocols (normalized to Cluster).
//
// Expected shape: Distance-15 minimizes E-D product (paper: ~10% better
// than Cluster on average), with the largest gains on unicast-heavy
// benchmarks.
#include "bench_common.hpp"

using namespace atacsim;
using namespace atacsim::bench;

namespace {

exp::report::Report run_fig13(const exp::ExecOptions& opt) {
  print_header("Figure 13", "routing-protocol energy-delay product");

  struct Policy {
    std::string name;
    RoutingPolicy pol;
    int r;
  };
  const std::vector<Policy> policies = {
      {"Cluster", RoutingPolicy::kCluster, 0},
      {"Distance-5", RoutingPolicy::kDistance, 5},
      {"Distance-15", RoutingPolicy::kDistance, 15},
      {"Distance-25", RoutingPolicy::kDistance, 25},
      {"Distance-35", RoutingPolicy::kDistance, 35},
      {"Distance-All", RoutingPolicy::kDistanceAll, 0},
  };
  // Representative subset (the paper's Fig. 13 shows four benchmarks + avg).
  const std::vector<std::string> apps = {"radix", "ocean_contig", "barnes",
                                         "lu_contig"};

  exp::sweep::CellConfig base;
  base.scenario.mp = atac_plus();
  base.scenario.scale = bench_scale();
  exp::sweep::SweepSpec spec(base);
  spec.axis(exp::sweep::apps_axis(apps))
      .axis(exp::sweep::value_axis<Policy>(
          "routing", policies, [](const Policy& p) { return p.name; },
          [](exp::sweep::CellConfig& c, const Policy& p) {
            c.scenario.mp.routing = p.pol;
            c.scenario.mp.r_thres = p.r;
          }));
  const auto res = exp::sweep::run_scenarios(spec, opt);
  const auto norm = res.grid([](const Outcome& o) { return o.edp(); })
                        .normalized_rows(0);
  const auto gm = norm.col_geomeans();

  std::vector<std::string> header = {"benchmark"};
  for (const auto& p : policies) header.push_back(p.name);
  Table t(header);
  for (std::size_t a = 0; a < apps.size(); ++a) {
    std::vector<std::string> row = {apps[a]};
    for (std::size_t i = 0; i < policies.size(); ++i)
      row.push_back(Table::num(norm.at(a, i), 3));
    t.add_row(std::move(row));
  }
  std::vector<std::string> avg = {"geomean"};
  for (const double g : gm) avg.push_back(Table::num(g, 3));
  t.add_row(std::move(avg));
  t.print(std::cout);
  std::printf(
      "\nPaper check: Distance-15 has the lowest average E-D product"
      "\n(paper: ~10%% below Cluster); Distance-All is worst.\n\n");
  return res.report();
}

}  // namespace

ATACSIM_BENCH("fig13_routing",
              "Fig. 13: EDP of cluster vs distance-based routing policies",
              run_fig13);
