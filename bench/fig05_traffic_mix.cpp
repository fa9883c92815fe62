// Fig. 5: percentage of unicast vs broadcast traffic per application,
// measured at the receivers (all traffic is cache-coherence traffic).
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
  std::printf(
      "\nPaper check: dynamic_graph / radix / barnes / fmm are the"
      "\nbroadcast-heavy group; ocean and lu are unicast-dominated.\n\n");
  return res.report();
}

}  // namespace

ATACSIM_BENCH("fig05_traffic_mix",
              "Fig. 5: unicast vs broadcast receiver-flit mix per app",
              run_fig05);
