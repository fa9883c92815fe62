// Fig. 12: energy effect of replacing ATAC's broadcast BNet with the
// point-to-point StarNet (cluster routing, to isolate the receive-net
// change, as in the paper).
//
// Expected shape: overall network+cache energy drops by a few percent on
// average, with the biggest gains on unicast-heavy benchmarks (radix,
// ocean_contig) — a BNet delivers every unicast to all 16 cores.
#include "bench_common.hpp"

using namespace atacsim;
using namespace atacsim::bench;

namespace {

exp::report::Report run_fig12(const exp::ExecOptions& opt) {
  print_header("Figure 12", "BNet vs StarNet energy (Cluster routing)");

  auto bnet_mp = atac_plus();
  bnet_mp.routing = RoutingPolicy::kCluster;
  bnet_mp.receive_net = ReceiveNet::kBNet;
  auto star_mp = bnet_mp;
  star_mp.receive_net = ReceiveNet::kStarNet;

  exp::sweep::CellConfig base;
  base.scenario.scale = bench_scale();
  exp::sweep::SweepSpec spec(base);
  spec.axis(exp::sweep::apps_axis(benchmarks()))
      .axis(exp::sweep::machine_axis(
          {{"BNet", bnet_mp}, {"StarNet", star_mp}}));
  const auto res = exp::sweep::run_scenarios(spec, opt);
  const auto norm =
      res.grid([](const Outcome& o) { return o.energy.chip_no_core(); })
          .normalized_rows(0);
  const auto gm = norm.col_geomeans();

  Table t({"benchmark", "BNet energy (mJ)", "StarNet energy (mJ)",
           "StarNet/BNet", "recvnet share % (BNet)"});
  for (std::size_t i = 0; i < benchmarks().size(); ++i) {
    const auto& b = res.at({i, 0});
    const auto& s = res.at({i, 1});
    const double eb = b.energy.chip_no_core();
    const double es = s.energy.chip_no_core();
    t.add_row({benchmarks()[i], Table::num(eb * 1e3, 3),
               Table::num(es * 1e3, 3), Table::num(es / eb, 3),
               Table::num(100.0 * b.energy.recvnet / eb, 2)});
  }
  t.add_row({"geomean", "-", "-", Table::num(gm[1], 3), "-"});
  t.print(std::cout);
  std::printf(
      "\nPaper check: StarNet reduces overall energy (paper: ~8%% average),"
      "\nmost on unicast-heavy benchmarks.\n\n");
  return res.report();
}

}  // namespace

ATACSIM_BENCH("fig12_starnet",
              "Fig. 12: BNet vs StarNet receive-net energy comparison",
              run_fig12);
