// Fig. 17: whole-chip energy breakdown into core / cache / network
// components under 10% and 40% core non-data-dependent (NDD) power, for
// ATAC+ vs EMesh-BCast (paper Sec. V-G): the paper's closing insight.
#include <algorithm>

#include "bench_common.hpp"

using namespace atacsim;
using namespace atacsim::bench;

namespace {

const std::vector<std::string> kApps = {"radix", "fmm", "ocean_contig",
                                        "ocean_non_contig", "dynamic_graph"};
const std::vector<double> kNdds = {0.10, 0.40};

std::string ndd_label(double v) { return Table::num(v, 2); }

exp::report::Report run_fig17(const exp::ExecOptions& opt) {
  print_header("Figure 17", "chip energy incl. cores (10% / 40% core NDD)");

  // The network axis sets fields (not whole machines) so the earlier NDD
  // axis survives; the two NDD flavours of each network dedupe onto one
  // simulation (core NDD only affects the energy model).
  exp::sweep::CellConfig base;
  base.scenario.mp = base_machine();
  base.scenario.scale = bench_scale();
  exp::sweep::SweepSpec spec(base);
  spec.axis(exp::sweep::value_axis<double>(
          "core_ndd_fraction", kNdds, ndd_label,
          [](exp::sweep::CellConfig& c, double v) {
            c.scenario.mp.core_ndd_fraction = v;
          }))
      .axis(exp::sweep::apps_axis(kApps))
      .axis(exp::sweep::value_axis<bool>(
          "network", {true, false},
          [](bool atac) { return atac ? "ATAC+" : "EMesh-BCast"; },
          [](exp::sweep::CellConfig& c, bool atac) {
            c.scenario.mp.network =
                atac ? NetworkKind::kAtacPlus : NetworkKind::kEMeshBCast;
          }));
  const auto res = exp::sweep::run_scenarios(spec, opt);

  for (std::size_t ni = 0; ni < kNdds.size(); ++ni) {
    std::printf("--- core NDD fraction: %.0f%% ---\n", kNdds[ni] * 100);
    Table t({"benchmark", "config", "core NDD (mJ)", "core DD (mJ)",
             "caches (mJ)", "network (mJ)", "chip total (mJ)"});
    for (std::size_t ai = 0; ai < kApps.size(); ++ai) {
      for (std::size_t mi = 0; mi < 2; ++mi) {
        const auto& e = res.at({ni, ai, mi}).energy;
        t.add_row({kApps[ai], mi == 0 ? "ATAC+" : "EMesh-BCast",
                   Table::num(e.core_ndd * 1e3, 3),
                   Table::num(e.core_dd * 1e3, 3),
                   Table::num(e.caches() * 1e3, 3),
                   Table::num(e.network() * 1e3, 3),
                   Table::num(e.chip() * 1e3, 3)});
      }
    }
    t.print(std::cout);
    std::printf("\n");
  }
  return res.report();
}

/// Stat `s` of `app` at NDD fraction `ndd` on network `net`.
double at(const Report& r, const std::string& app, double ndd,
          const std::string& net, const char* s) {
  return stat(r, app, ndd_label(ndd) + "/" + net, s);
}

/// EMesh-BCast's core-NDD energy less ATAC+'s, for `app` at `ndd`.
double ndd_saving(const Report& r, const std::string& app, double ndd) {
  return at(r, app, ndd, "EMesh-BCast", "energy_core_ndd") -
         at(r, app, ndd, "ATAC+", "energy_core_ndd");
}

const std::vector<Claim> kClaims = {
    {"Fig. 17: core NDD energy exceeds caches+network in every cell, at 10 % "
     "and at 40 % NDD",
     [](const Report& r) {
       std::string below;
       for (const double ndd : kNdds)
         for (const auto& app : kApps)
           for (const char* net : {"ATAC+", "EMesh-BCast"}) {
             const double core = at(r, app, ndd, net, "energy_core_ndd"),
                          rest = at(r, app, ndd, net, "energy_caches") +
                                 at(r, app, ndd, net, "energy_network");
             if (core <= rest)
               below += " " + app + " " + ndd_label(ndd) + "/" + net + " " +
                        num(core * 1e3, 3) + " <= " + num(rest * 1e3, 3) +
                        " mJ;";
           }
       return Verdict{below.empty(),
                      below.empty() ? "every cell" : "below:" + below};
     },
     "at the lower NDD fraction both oceans' core NDD energy falls below "
     "caches+network: v4's ocean runs are the shortest and broadcast-heavy, "
     "ROADMAP \"Model v6\""},
    {"Fig. 17: ATAC+ burns less core-NDD energy than EMesh-BCast on every "
     "app (its runs are shorter)",
     [](const Report& r) {
       double least = ndd_saving(r, kApps[0], 0.10);
       for (const auto& app : kApps)
         least = std::min(least, ndd_saving(r, app, 0.10));
       return Verdict{least > 0, "smallest saving at 10 % NDD " +
                                     num(least * 1e3, 3) + " mJ"};
     }},
    {"Fig. 17: ATAC+'s core-NDD saving widens as the NDD fraction grows "
     "(larger at 40 % than at 10 % on every app)",
     [](const Report& r) {
       bool wider = true;
       for (const auto& app : kApps)
         wider = wider && ndd_saving(r, app, 0.40) > ndd_saving(r, app, 0.10);
       return Verdict{wider, "radix " +
                                 num(ndd_saving(r, "radix", 0.10) * 1e3, 3) +
                                 " -> " +
                                 num(ndd_saving(r, "radix", 0.40) * 1e3, 3) +
                                 " mJ"};
     }},
};

}  // namespace

ATACSIM_BENCH("fig17_core_power",
              "Fig. 17: whole-chip energy incl. cores under 10%/40% NDD",
              run_fig17, kClaims);
