// Fig. 8: normalized energy-delay product per benchmark across the four
// ATAC+ flavours and the two electrical baselines (ACKwise4), normalized to
// ATAC+(Ideal).
//
// Headline result (paper abstract): EMesh-BCast ~1.8x and EMesh-Pure ~4.8x
// higher E-D product than ATAC+ on average; ATAC+ ~= ATAC+(Ideal).
#include "bench_common.hpp"

using namespace atacsim;
using namespace atacsim::bench;

namespace {

exp::report::Report run_fig08(const exp::ExecOptions& opt) {
  print_header("Figure 8", "normalized energy-delay product (ACKwise4)");

  const std::vector<std::pair<std::string, MachineParams>> configs = {
      {"ATAC+(Ideal)", atac_plus(PhotonicFlavor::kIdeal)},
      {"ATAC+", atac_plus(PhotonicFlavor::kDefault)},
      {"ATAC+(RingTuned)", atac_plus(PhotonicFlavor::kRingTuned)},
      {"ATAC+(Cons)", atac_plus(PhotonicFlavor::kCons)},
      {"EMesh-BCast", emesh_bcast()},
      {"EMesh-Pure", emesh_pure()},
  };

  // The four ATAC+ flavours dedupe onto one run per app (plan dedupe on
  // scenario key).
  exp::sweep::CellConfig base;
  base.scenario.scale = bench_scale();
  exp::sweep::SweepSpec spec(base);
  spec.axis(exp::sweep::apps_axis(benchmarks()))
      .axis(exp::sweep::machine_axis(configs));
  const auto res = exp::sweep::run_scenarios(spec, opt);
  const auto norm =
      res.grid([](const Outcome& o) { return o.edp(); }).normalized_rows(0);
  const auto means = norm.col_geomeans();

  res.normalized_table(norm, 2).print(std::cout);

  const double atac = means[1];
  std::printf(
      "\nHeadline: EMesh-BCast/ATAC+ = %.2fx, EMesh-Pure/ATAC+ = %.2fx"
      "\n(paper: 1.8x and 4.8x); ATAC+/Ideal = %.2fx (paper: ~1.0x).\n\n",
      means[4] / atac, means[5] / atac, atac / means[0]);
  return res.report();
}

}  // namespace

ATACSIM_BENCH("fig08_edp",
              "Fig. 8: normalized energy-delay product per app and config",
              run_fig08);
