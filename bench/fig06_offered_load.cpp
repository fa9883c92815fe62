// Fig. 6: offered network load per application (flits/cycle/core injected),
// a measure of network utilization and demand on ATAC+.
#include "bench_common.hpp"

using namespace atacsim;
using namespace atacsim::bench;

namespace {

exp::report::Report run_fig06(const exp::ExecOptions& opt) {
  print_header("Figure 6", "offered network load (flits/cycle/core)");

  const int cores = base_machine().num_cores;
  exp::sweep::CellConfig base;
  base.scenario.scale = bench_scale();
  exp::sweep::SweepSpec spec(base);
  spec.axis(exp::sweep::apps_axis(benchmarks()))
      .axis(exp::sweep::machine_axis({{"ATAC+", atac_plus()}}));
  const auto res = exp::sweep::run_scenarios(spec, opt);

  Table t({"benchmark", "offered load", "completion (cycles)", "IPC"});
  for (std::size_t i = 0; i < benchmarks().size(); ++i) {
    const auto& o = res.at({i, 0});
    t.add_row(
        {benchmarks()[i],
         Table::num(o.offered_load_flits_per_cycle_per_core(cores), 4),
         std::to_string(o.run.completion_cycles),
         Table::num(o.run.avg_ipc, 3)});
  }
  t.print(std::cout);
  std::printf(
      "\nPaper check: ocean variants and fmm carry the highest loads; lu and"
      "\ndynamic_graph the lowest (latency- and sync-bound).\n\n");
  return res.report();
}

}  // namespace

ATACSIM_BENCH("fig06_offered_load",
              "Fig. 6: offered network load and IPC per app on ATAC+",
              run_fig06);
