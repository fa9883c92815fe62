// Fig. 11: ATAC+ application runtime as the network flit width is varied
// from 16 to 256 bits (normalized to 64 bits). The paper picks 64 bits
// because wider flits multiply the optical die area; the area line below
// the table shows by how much.
#include "bench_common.hpp"
#include "power/energy_model.hpp"

using namespace atacsim;
using namespace atacsim::bench;

namespace {

// The paper's Fig. 11 shows a representative subset of the benchmarks.
const std::vector<std::string> kApps = {"radix", "barnes", "ocean_contig",
                                        "lu_contig", "dynamic_graph"};

exp::report::Report run_fig11(const exp::ExecOptions& opt) {
  print_header("Figure 11", "runtime vs flit width (normalized to 64-bit)");

  const std::vector<int> widths = {16, 32, 64, 128, 256};

  exp::sweep::CellConfig base;
  base.scenario.mp = atac_plus();
  base.scenario.scale = bench_scale();
  exp::sweep::SweepSpec spec(base);
  spec.axis(exp::sweep::apps_axis(kApps))
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
  std::printf("\n");
  return res.report();
}

/// Geomean runtime at `width` over the 64-bit runtime.
double runtime(const Report& r, const std::string& width) {
  return geomean_ratio(r, kApps, width, "64-bit", "completion_cycles");
}

const std::vector<Claim> kClaims = {
    {"Fig. 11: runtime improves more from 16 to 64 bits than from 64 to "
     "256 bits (geomean)",
     [](const Report& r) {
       const double narrow = runtime(r, "16-bit"),
                    wide = 1 / runtime(r, "256-bit");
       return Verdict{narrow > wide, "16->64 " + num(narrow) + "x, 64->256 " +
                                         num(wide) + "x"};
     }},
    {"Fig. 11: beyond 64 bits runtime improves only ~10 % (256-bit at "
     "least 0.8 of 64-bit, geomean)",
     [](const Report& r) {
       const double wide = runtime(r, "256-bit");
       return Verdict{wide >= 0.8, num(wide) + " of 64-bit"};
     },
     "multi-flit data messages serialize at the directory's single send "
     "port, so halving flit counts keeps helping (EXPERIMENTS.md delta 5)"},
};

}  // namespace

ATACSIM_BENCH("fig11_flit_width",
              "Fig. 11: runtime vs network flit width on ATAC+",
              run_fig11, kClaims);
