// Table V: adaptive SWMR link utilization (fraction of time in unicast or
// broadcast mode) and average number of unicast packets between successive
// broadcast packets on the ONet, per benchmark.
#include <set>

#include "bench_common.hpp"

using namespace atacsim;
using namespace atacsim::bench;

namespace {

exp::report::Report run_tab05(const exp::ExecOptions& opt) {
  print_header("Table V", "adaptive SWMR link utilization");

  exp::sweep::CellConfig base;
  base.scenario.scale = bench_scale();
  exp::sweep::SweepSpec spec(base);
  spec.axis(exp::sweep::apps_axis(benchmarks()))
      .axis(exp::sweep::machine_axis({{"ATAC+", atac_plus()}}));
  const auto res = exp::sweep::run_scenarios(spec, opt);

  Table t({"benchmark", "link utilization %", "unicasts per broadcast"});
  for (std::size_t i = 0; i < benchmarks().size(); ++i) {
    const auto& o = res.at({i, 0});
    const double ub =
        o.onet_bcasts ? static_cast<double>(o.onet_unicasts) / o.onet_bcasts
                      : 0.0;
    t.add_row({benchmarks()[i], Table::num(100.0 * o.swmr_utilization, 2),
               Table::num(ub, 0)});
  }
  t.print(std::cout);
  return res.report();
}

double utilization(const Report& r, const std::string& app) {
  return stat(r, app, "ATAC+", "swmr_utilization");
}

Ranking by_unicasts(const Report& r) {
  return rank(
      benchmarks(),
      [&r](const std::string& app) {
        return stat(r, app, "ATAC+", "onet_unicasts") /
               stat(r, app, "ATAC+", "onet_bcasts");
      },
      0);
}

const std::vector<Claim> kClaims = {
    {"Table V: the SWMR link idles 70-90+ % of the time (utilization at "
     "most 30 % on every app)",
     [](const Report& r) {
       const Ranking k = rank(benchmarks(), [&r](const std::string& app) {
         return 100 * utilization(r, app);
       });
       return Verdict{utilization(r, k.names.back()) <= 0.3, k.listing + " %"};
     },
     "v4's first-touch address layout makes ocean broadcast-heavy (Fig. 5), "
     "ROADMAP \"Model v6\""},
    {"Table V: ocean_non_contig has the busiest SWMR link",
     [](const Report& r) {
       bool busiest = true;
       for (const auto& app : benchmarks())
         busiest = busiest && (app == "ocean_non_contig" ||
                               utilization(r, app) <
                                   utilization(r, "ocean_non_contig"));
       return Verdict{busiest,
                      "ocean_non_contig " +
                          num(100 * utilization(r, "ocean_non_contig"), 2) +
                          " %, ocean_contig " +
                          num(100 * utilization(r, "ocean_contig"), 2) + " %"};
     },
     "the two oceans differ only by a row permutation that v4's first-touch "
     "numbering erases, so they tie, and the v6 prototype still puts "
     "ocean_non_contig second, ROADMAP \"Give ocean_contig SPLASH-2's "
     "tile-contiguous layout\""},
    {"Table V: lu_contig has the most unicasts per broadcast",
     [](const Report& r) {
       const Ranking k = by_unicasts(r);
       return Verdict{k.names.back() == "lu_contig", k.listing};
     },
     "v4's broadcast storms (Fig. 5) give ocean and lu many broadcasts, so "
     "the spread is far narrower than the paper's three orders of "
     "magnitude, ROADMAP \"Model v6\""},
    {"Table V: the N-body and graph codes (barnes, fmm, dynamic_graph) have "
     "the fewest unicasts per broadcast",
     [](const Report& r) {
       const Ranking k = by_unicasts(r);
       const std::set<std::string> fewest(k.names.begin(),
                                          k.names.begin() + 3);
       return Verdict{fewest == std::set<std::string>{"barnes", "fmm",
                                                      "dynamic_graph"},
                      k.listing};
     },
     "v4's ocean and radix broadcast storms (Fig. 5) give them the fewest, "
     "ROADMAP \"Model v6\""},
};

}  // namespace

ATACSIM_BENCH("tab05_swmr_util",
              "Table V: adaptive SWMR link utilization per benchmark",
              run_tab05, kClaims);
