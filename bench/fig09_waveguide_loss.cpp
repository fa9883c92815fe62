// Fig. 9: sensitivity of ATAC+ network+cache energy to waveguide loss
// (0.2 - 4 dB/cm), normalized to EMesh-BCast.
//
// Expected shape: ATAC+ tolerates up to ~2 dB/cm before its energy exceeds
// the EMesh-BCast baseline — laser power grows exponentially with loss but
// starts from a tiny gated base.
#include "bench_common.hpp"

using namespace atacsim;
using namespace atacsim::bench;

namespace {

exp::report::Report run_fig09(const exp::ExecOptions& opt) {
  print_header("Figure 9", "waveguide-loss sensitivity (8-benchmark average)");

  const std::vector<double> losses = {0.2, 0.5, 1.0, 2.0, 3.0, 4.0};
  const auto atac_mp = atac_plus(PhotonicFlavor::kDefault);
  const auto mesh_mp = emesh_bcast();

  exp::sweep::CellConfig base;
  base.scenario.scale = bench_scale();
  exp::sweep::SweepSpec spec(base);
  spec.axis(exp::sweep::apps_axis(benchmarks()))
      .axis(exp::sweep::machine_axis(
          {{"EMesh-BCast", mesh_mp}, {"ATAC+", atac_mp}}));
  const auto res = exp::sweep::run_scenarios(spec, opt);

  // Baseline energy: EMesh-BCast average across benchmarks. The loss sweep
  // itself needs no new simulations — energy is recomputed from the cached
  // ATAC+ runs under each technology bundle.
  double mesh_total = 0;
  std::vector<Outcome> atac_runs;
  for (std::size_t i = 0; i < benchmarks().size(); ++i) {
    mesh_total += res.at({i, 0}).energy.chip_no_core();
    atac_runs.push_back(res.at({i, 1}));
  }
  mesh_total /= benchmarks().size();

  auto rep = res.report();
  rep.rows.clear();

  Table t({"waveguide loss (dB/cm)", "ATAC+ energy / EMesh-BCast",
           "laser share %"});
  for (double loss : losses) {
    TechBundle tb;
    tb.photonics.waveguide_loss_dB_per_cm = loss;
    double total = 0, laser = 0;
    for (const auto& o : atac_runs) {
      const auto e = harness::recompute_energy(o, atac_mp, tb);
      total += e.chip_no_core();
      laser += e.laser;
    }
    total /= atac_runs.size();
    laser /= atac_runs.size();
    t.add_row({Table::num(loss, 1), Table::num(total / mesh_total, 3),
               Table::num(100.0 * laser / total, 2)});
    exp::report::Row rr;
    rr.app = "8-benchmark avg";
    rr.config = "loss=" + Table::num(loss, 1) + "dB/cm";
    rr.stats.add("waveguide_loss_dB_per_cm", loss);
    rr.stats.add("atac_energy_over_emesh_bcast", total / mesh_total);
    rr.stats.add("laser_share_pct", 100.0 * laser / total);
    rr.stats.add("atac_chip_no_core_nJ", total);
    rr.stats.add("emesh_bcast_chip_no_core_nJ", mesh_total);
    for (std::size_t i = 0; i < benchmarks().size(); ++i)
      for (std::size_t n = 0; n < 2; ++n) fold_failure(rr, res.at({i, n}));
    rep.rows.push_back(std::move(rr));
  }
  t.print(std::cout);
  std::printf(
      "\nPaper check: ATAC+ stays below the EMesh-BCast energy up to ~2"
      "\ndB/cm of waveguide loss (Sec. V-C).\n\n");
  return rep;
}

}  // namespace

ATACSIM_BENCH("fig09_waveguide_loss",
              "Fig. 9: energy sensitivity to waveguide loss vs EMesh-BCast",
              run_fig09);
