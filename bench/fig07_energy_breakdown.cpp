// Fig. 7: total network+cache energy breakdown averaged across all eight
// benchmarks, for the four ATAC+ technology flavours of Table IV and the
// two electrical baselines, normalized to ATAC+(Ideal).
//
// The four ATAC+ flavours share one simulation per benchmark (the plan
// dedupes on scenario key; the flavours differ only in the energy model),
// so the 6x8 grid needs just 3x8 runs.
#include "bench_common.hpp"

using namespace atacsim;
using namespace atacsim::bench;

namespace {

/// Per-component mean over the benchmarks of the chip's network and cache
/// energy (the components Fig. 7 plots).
power::EnergyBreakdown average_energy(const exp::sweep::SweepResult& res,
                                      std::size_t config,
                                      std::size_t num_apps) {
  power::EnergyBreakdown sum;
  for (std::size_t a = 0; a < num_apps; ++a) {
    const auto& e = res.at({config, a}).energy;
#define ATACSIM_X(f) sum.f += e.f;
    ATACSIM_NETWORK_ENERGY_FIELDS(ATACSIM_X)
    ATACSIM_CACHE_ENERGY_FIELDS(ATACSIM_X)
#undef ATACSIM_X
  }
  const double n = static_cast<double>(num_apps);
#define ATACSIM_X(f) sum.f /= n;
  ATACSIM_NETWORK_ENERGY_FIELDS(ATACSIM_X)
  ATACSIM_CACHE_ENERGY_FIELDS(ATACSIM_X)
#undef ATACSIM_X
  return sum;
}

exp::report::Report run_fig07(const exp::ExecOptions& opt) {
  print_header("Figure 7",
               "network+cache energy breakdown, 8-benchmark average "
               "(normalized to ATAC+(Ideal))");

  const std::vector<std::pair<std::string, MachineParams>> configs = {
      {"ATAC+(Ideal)", atac_plus(PhotonicFlavor::kIdeal)},
      {"ATAC+", atac_plus(PhotonicFlavor::kDefault)},
      {"ATAC+(RingTuned)", atac_plus(PhotonicFlavor::kRingTuned)},
      {"ATAC+(Cons)", atac_plus(PhotonicFlavor::kCons)},
      {"EMesh-BCast", emesh_bcast()},
      {"EMesh-Pure", emesh_pure()},
  };

  exp::sweep::CellConfig base;
  base.scenario.scale = bench_scale();
  exp::sweep::SweepSpec spec(base);
  spec.axis(exp::sweep::machine_axis(configs))
      .axis(exp::sweep::apps_axis(benchmarks()));
  const auto res = exp::sweep::run_scenarios(spec, opt);

  std::vector<power::EnergyBreakdown> es;
  for (std::size_t i = 0; i < configs.size(); ++i)
    es.push_back(average_energy(res, i, benchmarks().size()));
  const double base_e = es[0].chip_no_core();

  Table t({"component", "ATAC+(Ideal)", "ATAC+", "ATAC+(RingTuned)",
           "ATAC+(Cons)", "EMesh-BCast", "EMesh-Pure"});
  auto row = [&](const char* name, auto getter) {
    std::vector<std::string> r = {name};
    for (const auto& e : es) r.push_back(Table::num(getter(e) / base_e, 3));
    t.add_row(std::move(r));
  };
  row("laser", [](const auto& e) { return e.laser; });
  row("ring tuning", [](const auto& e) { return e.ring_tuning; });
  row("other optical", [](const auto& e) { return e.optical_other; });
  row("ENet dynamic", [](const auto& e) { return e.enet_dynamic; });
  row("ENet static", [](const auto& e) { return e.enet_static; });
  row("receive net", [](const auto& e) { return e.recvnet; });
  row("hubs", [](const auto& e) { return e.hub; });
  row("directory", [](const auto& e) { return e.directory; });
  row("L1-I", [](const auto& e) { return e.l1i; });
  row("L1-D", [](const auto& e) { return e.l1d; });
  row("L2", [](const auto& e) { return e.l2; });
  row("TOTAL", [](const auto& e) { return e.chip_no_core(); });
  row("caches/total", [base_e](const auto& e) {
    return e.chip_no_core() > 0 ? e.caches() / e.chip_no_core() * base_e : 0.0;
  });
  t.print(std::cout);
  return res.report();
}

/// Component `c` (an energy_* stat) of `config`, as a share of the
/// ATAC+(Ideal) network+cache total (the figure's normalization).
double bar(const Report& r, const std::string& config, const std::string& c) {
  return sum(r, benchmarks(), config, "energy_" + c) /
         sum(r, benchmarks(), "ATAC+(Ideal)", "energy_chip_no_core");
}

/// How much component `c` grows from ATAC+ to the slower EMesh-Pure.
double growth(const Report& r, const std::string& c) {
  return bar(r, "EMesh-Pure", c) / bar(r, "ATAC+", c);
}

const std::vector<Claim> kClaims = {
    {"Fig. 7: the laser dominates ATAC+(Cons) and ring tuning ATAC+"
     "(RingTuned) and (Cons): each bar exceeds the whole Ideal total",
     [](const Report& r) {
       const double laser = bar(r, "ATAC+(Cons)", "laser"),
                    tuned = bar(r, "ATAC+(RingTuned)", "ring_tuning"),
                    cons = bar(r, "ATAC+(Cons)", "ring_tuning");
       return Verdict{laser > 1 && tuned > 1 && cons > 1,
                      "Cons laser " + num(laser, 3) + ", ring tuning " +
                          num(tuned, 3) + " (RingTuned) and " +
                          num(cons, 3) + " (Cons) of the Ideal total"};
     }},
    {"Fig. 7: ATAC+ is within 10 % of ATAC+(Ideal); caches are > 75 % of "
     "its total, the L2 the largest component",
     [](const Report& r) {
       const double total = bar(r, "ATAC+", "chip_no_core"),
                    caches = bar(r, "ATAC+", "caches") / total,
                    l2 = bar(r, "ATAC+", "l2");
       bool largest = true;
       for (const char* c :
            {"laser", "ring_tuning", "optical_other", "enet_dynamic",
             "enet_static", "recvnet", "hub", "directory", "l1i", "l1d"})
         largest = largest && l2 > bar(r, "ATAC+", c);
       return Verdict{total < 1.1 && caches > 0.75 && largest,
                      "total " + num(total, 3) + " of Ideal, caches " +
                          num(100 * caches, 1) + " %, L2 " + num(l2, 3)};
     }},
    {"Fig. 7: the L1s are more dynamic than the L2 (each L1 bar grows less "
     "than the L2 bar from ATAC+ to the slower EMesh-Pure)",
     [](const Report& r) {
       return Verdict{growth(r, "l1i") < growth(r, "l2") &&
                          growth(r, "l1d") < growth(r, "l2"),
                      "L1-I " + num(growth(r, "l1i"), 3) + "x, L1-D " +
                          num(growth(r, "l1d"), 3) + "x, L2 " +
                          num(growth(r, "l2"), 3) + "x"};
     },
     "every cache bar grows with the runtime alike, so leakage and clock "
     "dominate them; no access increments l1i_accesses, so the L1-I bar is "
     "leakage and clock only, ROADMAP \"Model v5\""},
    {"Fig. 7: the directory is the smallest cache component",
     [](const Report& r) {
       const double dir = bar(r, "ATAC+", "directory"),
                    l1i = bar(r, "ATAC+", "l1i"), l1d = bar(r, "ATAC+", "l1d");
       return Verdict{dir < l1i && dir < l1d,
                      "directory " + num(dir, 3) + ", L1-I " + num(l1i, 3) +
                          ", L1-D " + num(l1d, 3) + " of Ideal"};
     },
     "the directory bar exceeds both L1 bars, and v5's fetch counting "
     "barely moves the L1-I bar, ROADMAP \"Model v5\""},
};

}  // namespace

ATACSIM_BENCH("fig07_energy_breakdown",
              "Fig. 7: energy breakdown across photonic flavours, normalized",
              run_fig07, kClaims);
