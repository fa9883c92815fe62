// Fig. 5: percentage of unicast vs broadcast traffic per application,
// measured at the receivers (all traffic is cache-coherence traffic).
#include <algorithm>

#include "bench_common.hpp"

using namespace atacsim;
using namespace atacsim::bench;

namespace {

exp::report::Report run_fig05(const exp::ExecOptions& opt) {
  print_header("Figure 5", "unicast vs broadcast traffic (receiver flits)");

  exp::sweep::CellConfig base;
  base.scenario.scale = bench_scale();
  exp::sweep::SweepSpec spec(base);
  spec.axis(exp::sweep::apps_axis(benchmarks()))
      .axis(exp::sweep::machine_axis({{"ATAC+", atac_plus()}}));
  const auto res = exp::sweep::run_scenarios(spec, opt);

  Table t({"benchmark", "unicast %", "broadcast %", "bcast invalidations"});
  for (std::size_t i = 0; i < benchmarks().size(); ++i) {
    const auto& o = res.at({i, 0});
    const double b = 100.0 * o.bcast_recv_fraction();
    t.add_row({benchmarks()[i], Table::num(100.0 - b, 1), Table::num(b, 1),
               std::to_string(o.run.mem.bcast_invalidations)});
  }
  t.print(std::cout);
  return res.report();
}

double bcast(const Report& r, const std::string& app) {
  return stat(r, app, "ATAC+", "bcast_recv_fraction");
}

/// Every app of `apps` with its broadcast share, and whether all are
/// unicast-dominated.
Verdict unicast_dominated(const Report& r,
                          const std::vector<std::string>& apps) {
  Verdict v{true, ""};
  for (const auto& app : apps) {
    v.holds = v.holds && bcast(r, app) < 0.5;
    v.measured += app + " " + num(100 * bcast(r, app), 1) + " % ";
  }
  v.measured += "broadcast";
  return v;
}

const std::vector<Claim> kClaims = {
    {"Fig. 5: ocean_contig is unicast-dominated (< 50 % broadcast flits)",
     [](const Report& r) { return unicast_dominated(r, {"ocean_contig"}); },
     "v4's first-touch address layout packs ocean's rows into shared lines, "
     "so its writes broadcast, ROADMAP \"Model v6\""},
    {"Fig. 5: lu_contig and lu_non_contig are unicast-dominated (< 50 % "
     "broadcast flits)",
     [](const Report& r) {
       return unicast_dominated(r, {"lu_contig", "lu_non_contig"});
     },
     "v4's first-touch address layout makes lu broadcast-heavy, ROADMAP "
     "\"Model v6\""},
    {"Fig. 5: dynamic_graph, radix, barnes and fmm each out-broadcast ocean "
     "and lu",
     [](const Report& r) {
       double heavy = 1, light = 0;
       for (const char* app : {"dynamic_graph", "radix", "barnes", "fmm"})
         heavy = std::min(heavy, bcast(r, app));
       for (const char* app : {"ocean_contig", "ocean_non_contig",
                               "lu_contig", "lu_non_contig"})
         light = std::max(light, bcast(r, app));
       return Verdict{heavy > light, "least of the first group " +
                                         num(100 * heavy, 1) +
                                         " %, most of ocean and lu " +
                                         num(100 * light, 1) + " %"};
     },
     "v4's first-touch address layout makes ocean and lu broadcast-heavy, "
     "and the v6 prototype still puts lu_non_contig above barnes, ROADMAP "
     "\"Model v6\""},
};

}  // namespace

ATACSIM_BENCH("fig05_traffic_mix",
              "Fig. 5: unicast vs broadcast receiver-flit mix per app",
              run_fig05, kClaims);
