// Table V: adaptive SWMR link utilization (fraction of time in unicast or
// broadcast mode) and average number of unicast packets between successive
// broadcast packets on the ONet, per benchmark.
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
  std::printf(
      "\nPaper check: the link idles 70-90+%% of the time (power-gating"
      "\npays); lu_contig has the most unicasts per broadcast, the N-body"
      "\nand graph codes the fewest.\n\n");
  return res.report();
}

}  // namespace

ATACSIM_BENCH("tab05_swmr_util",
              "Table V: adaptive SWMR link utilization per benchmark",
              run_tab05);
