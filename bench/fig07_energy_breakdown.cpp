// Fig. 7: total network+cache energy breakdown averaged across all eight
// benchmarks, for the four ATAC+ technology flavours of Table IV and the
// two electrical baselines, normalized to ATAC+(Ideal).
//
// Expected shape: the laser dominates ATAC+(Cons) (no power gating); ring
// tuning dominates ATAC+(RingTuned) and (Cons) (~260K heated rings); with
// both features (ATAC+) the network cost collapses to almost the Ideal
// level and caches dominate (>75%) the total.
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

int run_fig07(const Context& ctx) {
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
  const auto res = run_sweep(spec, ctx);

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
  std::printf(
      "\nPaper check: laser huge under Cons; ring tuning huge under"
      "\nRingTuned/Cons; ATAC+ ~= Ideal; caches dominate (>75%%) for ATAC+.\n\n");
  emit_report("fig07_energy_breakdown", res.plan_result());
  return 0;
}

}  // namespace

ATACSIM_BENCH("fig07_energy_breakdown",
              "Fig. 7: energy breakdown across photonic flavours, normalized",
              run_fig07);
