// Fig. 13: energy-delay product of the cluster-based vs distance-based
// unicast routing protocols (normalized to Cluster).
#include <algorithm>

#include "bench_common.hpp"

using namespace atacsim;
using namespace atacsim::bench;

namespace {

// Representative subset (the paper's Fig. 13 shows four benchmarks + avg).
const std::vector<std::string> kApps = {"radix", "ocean_contig", "barnes",
                                        "lu_contig"};

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

  exp::sweep::CellConfig base;
  base.scenario.mp = atac_plus();
  base.scenario.scale = bench_scale();
  exp::sweep::SweepSpec spec(base);
  spec.axis(exp::sweep::apps_axis(kApps))
      .axis(exp::sweep::value_axis<Policy>(
          "routing", policies, [](const Policy& p) { return p.name; },
          [](exp::sweep::CellConfig& c, const Policy& p) {
            c.scenario.mp.routing = p.pol;
            c.scenario.mp.r_thres = p.r;
          }));
  const auto res = exp::sweep::run_scenarios(spec, opt);
  const auto norm = res.grid([](const Outcome& o) { return o.edp(); })
                        .normalized_rows(0);

  res.normalized_table(norm, 3).print(std::cout);
  return res.report();
}

const std::vector<std::string> kPolicies = {
    "Cluster",     "Distance-5",  "Distance-15",
    "Distance-25", "Distance-35", "Distance-All"};

/// `policy`'s EDP over Cluster's: geomean over the apps, or on `app`.
double edp(const Report& r, const std::string& policy,
           const std::string& app = "") {
  const auto apps = app.empty() ? kApps : std::vector<std::string>{app};
  return geomean_ratio(r, apps, policy, "Cluster", "edp");
}

Ranking by_edp(const Report& r) {
  return rank(
      kPolicies, [&r](const std::string& p) { return edp(r, p); }, 3);
}

const std::vector<Claim> kClaims = {
    {"Fig. 13: Distance-15 has the lowest EDP, ~10 % below Cluster's "
     "(geomean saving within 1.5x)",
     [](const Report& r) {
       const Ranking k = by_edp(r);
       return Verdict{k.names.front() == "Distance-15" &&
                          near_paper(1 - edp(r, "Distance-15"), 0.10),
                      k.listing};
     }},
    {"Fig. 13: Distance-All has the highest EDP (geomean)",
     [](const Report& r) {
       const Ranking k = by_edp(r);
       return Verdict{k.names.back() == "Distance-All", k.listing};
     }},
    {"Fig. 13: Distance-15 gains most on the unicast-heavy apps (ocean_contig "
     "and lu_contig save more than radix and barnes)",
     [](const Report& r) {
       std::string m;
       for (const auto& app : kApps)
         m += app + " " + num(edp(r, "Distance-15", app), 3) + " ";
       return Verdict{std::max(edp(r, "Distance-15", "ocean_contig"),
                               edp(r, "Distance-15", "lu_contig")) <
                          std::min(edp(r, "Distance-15", "radix"),
                                   edp(r, "Distance-15", "barnes")),
                      m + "of Cluster"};
     }},
};

}  // namespace

ATACSIM_BENCH("fig13_routing",
              "Fig. 13: EDP of cluster vs distance-based routing policies",
              run_fig13, kClaims);
