// Fig. 3: average packet latency vs offered load under uniform-random
// unicast traffic with 0.1% broadcast injection, for the Cluster routing
// policy and Distance-i thresholds (paper Sec. IV-C).
//
// Expected shape: Cluster has the lowest zero-load latency but saturates
// first (everything funnels through the per-hub SWMR channels); mid-range
// r_thres values maximize saturation throughput; Distance-All (ENet only)
// is never optimal.
#include "bench_common.hpp"
#include "network/synthetic.hpp"

using namespace atacsim;
using namespace atacsim::bench;

namespace {

MachineParams config(RoutingPolicy pol, int r) {
  auto mp = base_machine();
  mp.network = NetworkKind::kAtacPlus;
  mp.routing = pol;
  mp.r_thres = r;
  return mp;
}

int run_fig03(const Context& ctx) {
  print_header("Figure 3", "latency vs offered load, routing policy sweep");
  const auto t0 = std::chrono::steady_clock::now();

  const std::vector<std::pair<std::string, MachineParams>> policies = {
      {"Cluster", config(RoutingPolicy::kCluster, 0)},
      {"Distance-5", config(RoutingPolicy::kDistance, 5)},
      {"Distance-15", config(RoutingPolicy::kDistance, 15)},
      {"Distance-25", config(RoutingPolicy::kDistance, 25)},
      {"Distance-35", config(RoutingPolicy::kDistance, 35)},
      {"Distance-All", config(RoutingPolicy::kDistanceAll, 0)},
  };
  const std::vector<double> loads = {0.005, 0.01, 0.02, 0.03, 0.04,
                                     0.05,  0.06, 0.08, 0.10};

  exp::sweep::CellConfig base;
  base.synth.bcast_fraction = 0.001;
  base.synth.warmup_cycles = 3000;
  base.synth.measure_cycles = 12000;
  exp::sweep::SweepSpec spec(base);
  spec.axis(exp::sweep::value_axis<double>(
          "offered_load", loads, [](double v) { return Table::num(v, 3); },
          [](exp::sweep::CellConfig& c, double v) {
            c.synth.offered_load = v;
          }))
      .axis(exp::sweep::machine_axis(policies));
  const auto results = exp::sweep::run_synthetic_grid(spec, exec_options(ctx));

  std::vector<std::string> header = {"load (flits/cyc/core)"};
  for (const auto& p : policies) header.push_back(p.first);
  Table t(header);

  exp::report::Report rep;
  rep.name = "fig03_latency_load";
  rep.cells = spec.num_cells();
  rep.simulations = spec.num_cells();
  rep.jobs = exp::pool_size(exec_options(ctx), spec.num_cells());
  rep.wall_seconds = seconds_since(t0);
  for (std::size_t li = 0; li < loads.size(); ++li) {
    std::vector<std::string> row = {spec.label(0, li)};
    for (std::size_t pi = 0; pi < policies.size(); ++pi) {
      const auto& r = results[spec.flat({li, pi})];
      // Cap the display: past saturation the open-loop latency diverges.
      row.push_back(r.avg_latency_cycles > 2000
                        ? ">2000"
                        : Table::num(r.avg_latency_cycles, 1));
      exp::report::Row rr;
      rr.app = spec.label(0, li);
      rr.config = policies[pi].first;
      rr.stats.add("offered_load", loads[li]);
      rr.stats.add("avg_latency_cycles", r.avg_latency_cycles);
      rr.stats.add("max_latency_cycles", r.max_latency_cycles);
      rr.stats.add("packets_measured",
                   static_cast<double>(r.packets_measured));
      rr.stats.add("accepted_flits_per_cycle_per_core",
                   r.accepted_flits_per_cycle_per_core);
      rep.rows.push_back(std::move(rr));
    }
    t.add_row(std::move(row));
  }
  t.print(std::cout);
  std::printf(
      "\nPaper check: Cluster saturates earliest; optimal r_thres grows with"
      "\nload; Distance-All and Distance-35 never optimal (Sec. IV-C).\n\n");
  emit_report(rep);
  return 0;
}

}  // namespace

ATACSIM_BENCH("fig03_latency_load",
              "Fig. 3: packet latency vs offered load across routing policies",
              run_fig03);
