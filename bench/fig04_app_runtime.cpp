// Fig. 4: application runtime on ATAC+, EMesh-BCast and EMesh-Pure
// (ACKwise4, Distance-15, StarNet — the paper's defaults).
//
// Expected shape: ATAC+ leads everywhere; EMesh-Pure collapses on the
// broadcast-heavy applications (dynamic_graph, radix, barnes, fmm) because
// every broadcast becomes ~1023 serialized unicasts.
#include "bench_common.hpp"

using namespace atacsim;
using namespace atacsim::bench;

namespace {

exp::report::Report run_fig04(const exp::ExecOptions& opt) {
  print_header("Figure 4", "application runtime comparison");

  exp::sweep::CellConfig base;
  base.scenario.scale = bench_scale();
  exp::sweep::SweepSpec spec(base);
  spec.axis(exp::sweep::apps_axis(benchmarks()))
      .axis(exp::sweep::machine_axis({{"ATAC+", atac_plus()},
                                      {"EMesh-BCast", emesh_bcast()},
                                      {"EMesh-Pure", emesh_pure()}}));
  const auto res = exp::sweep::run_scenarios(spec, opt);
  const auto cycles = res.grid([](const Outcome& o) {
    return static_cast<double>(o.run.completion_cycles);
  });
  const auto norm = cycles.normalized_rows(0);
  const auto gm = norm.col_geomeans();

  Table t({"benchmark", "ATAC+ (cycles)", "EMesh-BCast", "EMesh-Pure",
           "BCast/ATAC+", "Pure/ATAC+"});
  for (std::size_t i = 0; i < benchmarks().size(); ++i) {
    t.add_row({benchmarks()[i],
               std::to_string(res.at({i, 0}).run.completion_cycles),
               std::to_string(res.at({i, 1}).run.completion_cycles),
               std::to_string(res.at({i, 2}).run.completion_cycles),
               Table::num(norm.at(i, 1), 2), Table::num(norm.at(i, 2), 2)});
  }
  t.add_row({"geomean", "-", "-", "-", Table::num(gm[1], 2),
             Table::num(gm[2], 2)});
  t.print(std::cout);
  std::printf(
      "\nPaper check: ATAC+ commands a sizable lead over both baselines; the"
      "\ngap vs EMesh-Pure is largest for broadcast-heavy applications.\n\n");
  return res.report();
}

}  // namespace

ATACSIM_BENCH("fig04_app_runtime",
              "Fig. 4: runtime on ATAC+ vs EMesh-BCast vs EMesh-Pure",
              run_fig04);
