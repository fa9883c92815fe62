// Fig. 14: energy-delay product of the ACKwise4 and Dir4B coherence
// protocols on the ATAC+ and EMesh-BCast networks (normalized to
// ATAC+/ACKwise4).
//
// Expected shape: Dir4B suffers on broadcast-heavy benchmarks (it collects
// acknowledgements from all 1024 cores per broadcast invalidation), and the
// degradation is worse on the electrical mesh.
#include "bench_common.hpp"

using namespace atacsim;
using namespace atacsim::bench;

namespace {

exp::report::Report run_fig14(const exp::ExecOptions& opt) {
  print_header("Figure 14", "coherence-protocol energy-delay product");

  struct Config {
    std::string name;
    NetworkKind net;
    CoherenceKind coh;
  };
  const std::vector<Config> configs = {
      {"ATAC+/ACKwise4", NetworkKind::kAtacPlus, CoherenceKind::kAckwise},
      {"ATAC+/Dir4B", NetworkKind::kAtacPlus, CoherenceKind::kDirKB},
      {"EMesh-BCast/ACKwise4", NetworkKind::kEMeshBCast,
       CoherenceKind::kAckwise},
      {"EMesh-BCast/Dir4B", NetworkKind::kEMeshBCast, CoherenceKind::kDirKB},
  };
  // The paper's Fig. 14 shows the moderate-to-high broadcast benchmarks.
  const std::vector<std::string> apps = {"radix", "barnes", "fmm",
                                         "ocean_contig"};

  exp::sweep::CellConfig base;
  base.scenario.mp = base_machine();
  base.scenario.scale = bench_scale();
  exp::sweep::SweepSpec spec(base);
  spec.axis(exp::sweep::apps_axis(apps))
      .axis(exp::sweep::value_axis<Config>(
          "network/coherence", configs,
          [](const Config& c) { return c.name; },
          [](exp::sweep::CellConfig& cell, const Config& c) {
            cell.scenario.mp.network = c.net;
            cell.scenario.mp.coherence = c.coh;
          }));
  const auto res = exp::sweep::run_scenarios(spec, opt);
  const auto norm = res.grid([](const Outcome& o) { return o.edp(); })
                        .normalized_rows(0);

  res.normalized_table(norm, 2).print(std::cout);
  std::printf(
      "\nPaper check: ACKwise4 beats Dir4B on both networks; Dir4B's"
      "\ndegradation is larger on EMesh-BCast and grows with broadcast"
      "\nfrequency (barnes, fmm, radix).\n\n");
  return res.report();
}

}  // namespace

ATACSIM_BENCH("fig14_coherence",
              "Fig. 14: EDP of ACKwise4 vs Dir4B on ATAC+ and EMesh-BCast",
              run_fig14);
