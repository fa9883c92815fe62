// Fig. 14: energy-delay product of the ACKwise4 and Dir4B coherence
// protocols on the ATAC+ and EMesh-BCast networks (normalized to
// ATAC+/ACKwise4). Dir4B collects acknowledgements from every core per
// broadcast invalidation; ACKwise4 only from the true sharers.
#include <algorithm>

#include "bench_common.hpp"

using namespace atacsim;
using namespace atacsim::bench;

namespace {

// The paper's Fig. 14 shows the moderate-to-high broadcast benchmarks.
const std::vector<std::string> kApps = {"radix", "barnes", "fmm",
                                        "ocean_contig"};

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

  exp::sweep::CellConfig base;
  base.scenario.mp = base_machine();
  base.scenario.scale = bench_scale();
  exp::sweep::SweepSpec spec(base);
  spec.axis(exp::sweep::apps_axis(kApps))
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
  return res.report();
}

/// Dir4B's EDP over ACKwise4's on network `net`, for `app`.
double penalty(const Report& r, const std::string& app,
               const std::string& net) {
  return ratio(r, app, net + "/Dir4B", net + "/ACKwise4", "edp");
}

const std::vector<Claim> kClaims = {
    {"Fig. 14: ACKwise4 beats Dir4B on every app, on both networks",
     [](const Report& r) {
       double least = penalty(r, kApps[0], "ATAC+");
       for (const auto& app : kApps)
         for (const char* net : {"ATAC+", "EMesh-BCast"})
           least = std::min(least, penalty(r, app, net));
       return Verdict{least > 1, "smallest Dir4B/ACKwise4 EDP " +
                                     num(least) + "x"};
     }},
    {"Fig. 14: Dir4B's degradation is larger on EMesh-BCast than on ATAC+ "
     "(geomean)",
     [](const Report& r) {
       const double atac = geomean_ratio(r, kApps, "ATAC+/Dir4B",
                                         "ATAC+/ACKwise4", "edp"),
                    mesh = geomean_ratio(r, kApps, "EMesh-BCast/Dir4B",
                                         "EMesh-BCast/ACKwise4", "edp");
       return Verdict{mesh > atac, "EMesh-BCast " + num(mesh) +
                                       "x, ATAC+ " + num(atac) + "x"};
     }},
    {"Fig. 14: Dir4B hurts in proportion to broadcasts (on ATAC+ its "
     "penalty ranks the apps as their broadcast invalidations do)",
     [](const Report& r) {
       const Ranking by_penalty = rank(kApps, [&r](const std::string& app) {
         return penalty(r, app, "ATAC+");
       });
       const Ranking by_bcasts = rank(kApps, [&r](const std::string& app) {
         return stat(r, app, "ATAC+/ACKwise4", "bcast_invalidations");
       });
       return Verdict{by_penalty.names == by_bcasts.names,
                      by_penalty.listing + " (x ACKwise4)"};
     }},
    {"Fig. 14: ocean_contig is unaffected by Dir4B (EDP within 10 % of "
     "ACKwise4's on ATAC+)",
     [](const Report& r) {
       const double x = penalty(r, "ocean_contig", "ATAC+");
       return Verdict{x < 1.1, num(x) + "x"};
     },
     "v4's first-touch address layout gives ocean more broadcast "
     "invalidations than any other app (Fig. 5), ROADMAP \"Model v6\""},
};

}  // namespace

ATACSIM_BENCH("fig14_coherence",
              "Fig. 14: EDP of ACKwise4 vs Dir4B on ATAC+ and EMesh-BCast",
              run_fig14, kClaims);
