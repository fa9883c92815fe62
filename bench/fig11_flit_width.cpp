// Fig. 11: ATAC+ application runtime as the network flit width is varied
// from 16 to 256 bits (normalized to 64 bits).
//
// Expected shape: poor at 16 bits, improving steeply to 64 bits, then
// flattening (the paper picks 64 bits because wider flits quadruple the
// optical die area for ~10% runtime).
#include "bench_common.hpp"
#include "power/energy_model.hpp"

using namespace atacsim;
using namespace atacsim::bench;

namespace {

exp::report::Report run_fig11(const exp::ExecOptions& opt) {
  print_header("Figure 11", "runtime vs flit width (normalized to 64-bit)");

  const std::vector<int> widths = {16, 32, 64, 128, 256};
  // The paper's Fig. 11 shows a representative subset of the benchmarks.
  const std::vector<std::string> apps = {"radix", "barnes", "ocean_contig",
                                         "lu_contig", "dynamic_graph"};

  exp::sweep::CellConfig base;
  base.scenario.mp = atac_plus();
  base.scenario.scale = bench_scale();
  exp::sweep::SweepSpec spec(base);
  spec.axis(exp::sweep::apps_axis(apps))
      .axis(exp::sweep::value_axis<int>(
          "flit_bits", widths,
          [](int w) { return std::to_string(w) + "-bit"; },
          [](exp::sweep::CellConfig& c, int w) {
            c.scenario.mp.flit_bits = w;
          }));
  const auto res = exp::sweep::run_scenarios(spec, opt);
  // Normalized to the 64-bit cell of the same benchmark (column 2).
  const auto norm = res.grid([](const Outcome& o) {
                         return static_cast<double>(o.run.completion_cycles);
                       })
                        .normalized_rows(2);

  res.normalized_table(norm, 2).print(std::cout);

  // The area cost that motivates stopping at 64 bits.
  std::printf("\noptical area: ");
  for (int w : widths) {
    auto mp = atac_plus();
    mp.flit_bits = w;
    const power::EnergyModel em(mp);
    std::printf("%d-bit=%.0fmm^2  ", w, em.area().optical);
  }
  std::printf(
      "\nPaper check: large gain 16->64 bits, ~10%% beyond; 256-bit optics"
      "\nwould occupy ~160 mm^2 (unacceptable).\n\n");
  return res.report();
}

}  // namespace

ATACSIM_BENCH("fig11_flit_width",
              "Fig. 11: runtime vs network flit width on ATAC+",
              run_fig11);
