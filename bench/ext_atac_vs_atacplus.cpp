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
  std::printf(
      "\nReading: the adaptive SWMR link (laser power gating) delivers the"
      "\nbulk of the energy-delay win; StarNet and distance-based routing"
      "\neach shave a further slice — the decomposition behind the paper's"
      "\nSec. V-E.\n\n");
  return res.report();
}

}  // namespace

ATACSIM_BENCH("ext_atac_vs_atacplus",
              "Extension: stepwise ATAC-classic to ATAC+ improvements",
              run_ext_atac_vs_atacplus);
