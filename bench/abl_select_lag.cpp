// Ablation: sensitivity to the select->data link lag of the adaptive SWMR
// link (paper Sec. IV-A assumes ring resonators tune in within 1 ns = 1
// cycle). Sweeps the lag from 0 to 4 cycles on synthetic traffic and two
// applications.
#include <algorithm>
#include <cmath>

#include "bench_common.hpp"
#include "network/synthetic.hpp"

using namespace atacsim;
using namespace atacsim::bench;

namespace {

const std::vector<Cycle> kLags = {0, 1, 2, 4};

std::string lag_label(Cycle lag) { return "lag=" + std::to_string(lag); }

exp::report::Report run_abl_select_lag(const exp::ExecOptions& opt) {
  print_header("Ablation", "adaptive SWMR select->data lag");

  auto lag_axis = exp::sweep::value_axis<Cycle>(
      "onet_select_data_lag", kLags,
      [](Cycle lag) { return std::to_string(lag); },
      [](exp::sweep::CellConfig& c, Cycle lag) {
        c.scenario.mp.onet_select_data_lag = lag;
      });

  auto mp = atac_plus();
  mp.routing = RoutingPolicy::kCluster;  // maximize ONet exposure

  exp::sweep::CellConfig syn_base;
  syn_base.scenario.mp = mp;
  syn_base.synth.offered_load = 0.005;
  syn_base.synth.warmup_cycles = 2000;
  syn_base.synth.measure_cycles = 8000;
  exp::sweep::SweepSpec syn_spec(syn_base);
  syn_spec.axis(lag_axis);
  const auto syn = exp::sweep::run_synthetic_grid(syn_spec, opt);

  exp::sweep::CellConfig app_base;
  app_base.scenario.mp = mp;
  app_base.scenario.scale = bench_scale();
  exp::sweep::SweepSpec app_spec(app_base);
  app_spec.axis(lag_axis).axis(exp::sweep::apps_axis({"radix", "barnes"}));
  const auto res = exp::sweep::run_scenarios(app_spec, opt);

  // The synthetic cells add to the application sweep's metadata.
  auto rep = res.report();
  rep.rows.clear();
  rep.cells += syn_spec.num_cells();
  rep.simulations += syn_spec.num_cells();
  rep.jobs = std::max(exp::pool_size(opt, syn_spec.num_cells()), rep.jobs);

  Table t({"lag (cycles)", "synthetic zero-load latency", "radix cycles",
           "barnes cycles"});
  for (std::size_t li = 0; li < kLags.size(); ++li) {
    const auto& radix = res.at({li, 0});
    const auto& barnes = res.at({li, 1});
    t.add_row({std::to_string(kLags[li]),
               Table::num(syn[li].avg_latency_cycles, 1),
               std::to_string(radix.run.completion_cycles),
               std::to_string(barnes.run.completion_cycles)});
    exp::report::Row rr;
    rr.app = lag_label(kLags[li]);
    rr.config = "ATAC+/Cluster";
    rr.stats.add("onet_select_data_lag", static_cast<double>(kLags[li]));
    rr.stats.add("synthetic_avg_latency_cycles", syn[li].avg_latency_cycles);
    rr.stats.add("radix_completion_cycles",
                 static_cast<double>(radix.run.completion_cycles));
    rr.stats.add("barnes_completion_cycles",
                 static_cast<double>(barnes.run.completion_cycles));
    fold_failure(rr, radix);
    fold_failure(rr, barnes);
    rep.rows.push_back(std::move(rr));
  }
  t.print(std::cout);
  return rep;
}

double at(const Report& r, Cycle lag, const std::string& s) {
  return stat(r, lag_label(lag), "ATAC+/Cluster", s);
}

const std::vector<Claim> kClaims = {
    {"abl_select_lag: each lag cycle adds about one cycle to every ONet "
     "packet (synthetic latency rises 0.75-1.25 cycles per lag cycle)",
     [](const Report& r) {
       Verdict v{true, "cycles per lag cycle:"};
       for (const Cycle lag : {1, 2, 4}) {
         const double x = (at(r, lag, "synthetic_avg_latency_cycles") -
                           at(r, 0, "synthetic_avg_latency_cycles")) /
                          static_cast<double>(lag);
         v.holds = v.holds && x >= 0.75 && x <= 1.25;
         v.measured += " " + num(x) + " at lag " + std::to_string(lag);
       }
       return v;
     }},
    {"abl_select_lag: application runtimes move less than 10 % from lag 0 "
     "up to lag 4, so 1 ns ring tuning suffices",
     [](const Report& r) {
       Verdict v{true, "at lag 1 / 2 / 4:"};
       for (const std::string app : {"radix", "barnes"}) {
         const std::string s = app + "_completion_cycles";
         v.measured += " " + app;
         for (const Cycle lag : {1, 2, 4}) {
           const double x = at(r, lag, s) / at(r, 0, s) - 1;
           v.holds = v.holds && std::abs(x) < 0.1;
           v.measured += " " + num(100 * x, 1) + " %";
         }
       }
       return v;
     },
     "radix's runtime jumps at lag 4 with more L2 misses and unicasts than "
     "at lag 2 while its SWMR utilization falls, so it is not link "
     "saturation; ROADMAP \"explain the three unexplained scale-1 "
     "results\""},
};

}  // namespace

ATACSIM_BENCH("abl_select_lag",
              "Ablation: sensitivity to the SWMR select->data lag",
              run_abl_select_lag, kClaims);
