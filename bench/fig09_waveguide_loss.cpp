// Fig. 9: sensitivity of ATAC+ network+cache energy to waveguide loss
// (0.2 - 4 dB/cm), normalized to EMesh-BCast.
#include "bench_common.hpp"

using namespace atacsim;
using namespace atacsim::bench;

namespace {

const std::vector<double> kLosses = {0.2, 0.5, 1.0, 2.0, 3.0, 4.0};

std::string loss_label(double loss) {
  return "loss=" + Table::num(loss, 1) + "dB/cm";
}

exp::report::Report run_fig09(const exp::ExecOptions& opt) {
  print_header("Figure 9", "waveguide-loss sensitivity (8-benchmark average)");

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
  for (double loss : kLosses) {
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
    rr.config = loss_label(loss);
    rr.stats.add("waveguide_loss_dB_per_cm", loss);
    rr.stats.add("atac_energy_over_emesh_bcast", total / mesh_total);
    rr.stats.add("laser_share_pct", 100.0 * laser / total);
    rr.stats.add("atac_chip_no_core_J", total);
    rr.stats.add("emesh_bcast_chip_no_core_J", mesh_total);
    for (std::size_t i = 0; i < benchmarks().size(); ++i)
      for (std::size_t n = 0; n < 2; ++n) fold_failure(rr, res.at({i, n}));
    rep.rows.push_back(std::move(rr));
  }
  t.print(std::cout);
  return rep;
}

double at(const Report& r, double loss, const char* s) {
  return stat(r, "8-benchmark avg", loss_label(loss), s);
}

const std::vector<Claim> kClaims = {
    {"Fig. 9: ATAC+ stays below EMesh-BCast's energy up to ~2 dB/cm (the "
     "crossover lies between 1 and 3 dB/cm)",
     [](const Report& r) {
       const double one = at(r, 1.0, "atac_energy_over_emesh_bcast"),
                    three = at(r, 3.0, "atac_energy_over_emesh_bcast");
       return Verdict{one < 1 && three > 1,
                      num(one, 3) + "x at 1 dB/cm, " +
                          num(at(r, 2.0, "atac_energy_over_emesh_bcast"), 3) +
                          "x at 2, " + num(three, 3) + "x at 3"};
     }},
    {"Fig. 9: the laser's share grows with loss, to most of ATAC+'s energy "
     "by 3 dB/cm",
     [](const Report& r) {
       bool rising = true;
       for (std::size_t i = 1; i < kLosses.size(); ++i)
         rising = rising && at(r, kLosses[i], "laser_share_pct") >
                                at(r, kLosses[i - 1], "laser_share_pct");
       const double share = at(r, 3.0, "laser_share_pct");
       return Verdict{rising && share > 50,
                      num(at(r, 0.2, "laser_share_pct")) + " % at 0.2 dB/cm, " +
                          num(share) + " % at 3"};
     }},
};

}  // namespace

ATACSIM_BENCH("fig09_waveguide_loss",
              "Fig. 9: energy sensitivity to waveguide loss vs EMesh-BCast",
              run_fig09, kClaims);
