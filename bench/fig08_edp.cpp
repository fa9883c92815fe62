// Fig. 8: normalized energy-delay product per benchmark across the four
// ATAC+ flavours and the two electrical baselines (ACKwise4), normalized to
// ATAC+(Ideal). The paper's headline result (its abstract).
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

  res.normalized_table(norm, 2).print(std::cout);
  return res.report();
}

/// Geomean over the apps of `config`'s EDP over `base`'s.
double edp_over(const Report& r, const std::string& config,
                const std::string& base) {
  return geomean_ratio(r, benchmarks(), config, base, "edp");
}

const std::vector<Claim> kClaims = {
    {"Fig. 8: EMesh-BCast's EDP is 1.8x ATAC+'s (geomean, within 1.5x)",
     [](const Report& r) {
       const double x = edp_over(r, "EMesh-BCast", "ATAC+");
       return Verdict{near_paper(x, 1.8), num(x) + "x"};
     }},
    {"Fig. 8: EMesh-Pure's EDP is 4.8x ATAC+'s (geomean, within 1.5x)",
     [](const Report& r) {
       const double x = edp_over(r, "EMesh-Pure", "ATAC+");
       return Verdict{near_paper(x, 4.8), num(x) + "x"};
     },
     "ocean and radix carry the geomean: EMesh-Pure sends each of v4's "
     "broadcast invalidations as one unicast per core, ROADMAP \"Model "
     "v6\""},
    {"Fig. 8: ATAC+'s EDP is within 10 % of ATAC+(Ideal)'s (geomean)",
     [](const Report& r) {
       const double x = edp_over(r, "ATAC+", "ATAC+(Ideal)");
       return Verdict{x < 1.1, num(x, 3) + "x"};
     }},
};

}  // namespace

ATACSIM_BENCH("fig08_edp",
              "Fig. 8: normalized energy-delay product per app and config",
              run_fig08, kClaims);
