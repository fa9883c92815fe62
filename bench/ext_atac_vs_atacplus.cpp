// Extension: the combined ATAC -> ATAC+ story (paper Secs. IV + V-E in one
// table). "ATAC classic" is the original architecture: Cluster routing +
// broadcast BNet + off-chip always-on laser (the Cons flavour);
// ATAC+ adds the adaptive SWMR link (power gating), the StarNet and
// Distance-15 routing. Each column enables one improvement.
#include "bench_common.hpp"

using namespace atacsim;
using namespace atacsim::bench;

namespace {

MachineParams atac_classic() {
  auto mp = atac_plus(PhotonicFlavor::kCons);
  mp.routing = RoutingPolicy::kCluster;
  mp.receive_net = ReceiveNet::kBNet;
  return mp;
}

exp::report::Report run_ext_atac_vs_atacplus(const exp::ExecOptions& opt) {
  print_header("Extension",
               "ATAC (classic) -> ATAC+ step-by-step improvements");

  std::vector<std::pair<std::string, MachineParams>> steps;
  steps.push_back({"ATAC (Cons+BNet+Cluster)", atac_classic()});
  auto s1 = atac_classic();
  s1.photonics = PhotonicFlavor::kDefault;  // adaptive SWMR (gated laser)
  steps.push_back({"+ adaptive SWMR", s1});
  auto s2 = s1;
  s2.receive_net = ReceiveNet::kStarNet;
  steps.push_back({"+ StarNet", s2});
  auto s3 = s2;
  s3.routing = RoutingPolicy::kDistance;
  s3.r_thres = 15;
  steps.push_back({"+ Distance-15 (= ATAC+)", s3});

  exp::sweep::CellConfig base;
  base.scenario.scale = bench_scale();
  exp::sweep::SweepSpec spec(base);
  spec.axis(exp::sweep::apps_axis(benchmarks()))
      .axis(exp::sweep::machine_axis(steps));
  const auto res = exp::sweep::run_scenarios(spec, opt);
  const auto norm = res.grid([](const Outcome& o) { return o.edp(); })
                        .normalized_rows(0);

  res.normalized_table(norm, 3).print(std::cout);
  return res.report();
}

/// Geomean EDP after `step`, relative to ATAC classic.
double edp(const Report& r, const char* step) {
  return geomean_ratio(r, benchmarks(), step, "ATAC (Cons+BNet+Cluster)",
                       "edp");
}

std::string steps(const Report& r) {
  return "+ adaptive SWMR " + num(edp(r, "+ adaptive SWMR"), 3) +
         ", + StarNet " + num(edp(r, "+ StarNet"), 3) + ", ATAC+ " +
         num(edp(r, "+ Distance-15 (= ATAC+)"), 3) + " of ATAC classic";
}

// The decomposition behind the paper's Sec. V-E.
const std::vector<Claim> kClaims = {
    {"ext_atac_vs_atacplus: the adaptive SWMR link (laser power gating) "
     "delivers most of the EDP win from ATAC classic to ATAC+ (geomean)",
     [](const Report& r) {
       return Verdict{1 - edp(r, "+ adaptive SWMR") >
                          0.5 * (1 - edp(r, "+ Distance-15 (= ATAC+)")),
                      steps(r)};
     }},
    {"ext_atac_vs_atacplus: StarNet and Distance-15 routing each lower the "
     "EDP further (geomean)",
     [](const Report& r) {
       return Verdict{edp(r, "+ StarNet") < edp(r, "+ adaptive SWMR") &&
                          edp(r, "+ Distance-15 (= ATAC+)") <
                              edp(r, "+ StarNet"),
                      steps(r)};
     }},
};

}  // namespace

ATACSIM_BENCH("ext_atac_vs_atacplus",
              "Extension: stepwise ATAC-classic to ATAC+ improvements",
              run_ext_atac_vs_atacplus, kClaims);
