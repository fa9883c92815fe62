// Ablation: flow-level link-reservation network model vs the cycle-accurate
// wormhole reference, on an 8x8 mesh under uniform-random traffic.
//
// The flow model is what every full-system experiment uses (a 1024-core
// cycle-accurate NoC would be ~100x slower to simulate); this ablation
// quantifies the approximation: zero-load latencies should match closely
// and saturation onset should agree in shape.
//
// Both models are compared through the same net::ChannelUsage view: the
// cycle mesh exports its per-link busy cycles exactly like the flow model's
// reservation ledgers, so the report carries link utilization from both,
// and under ATACSIM_VALIDATE=1 the mesh's usage is run through the
// channel-ledger capacity probe (busy <= elapsed x channels). The flow
// model is exempt from the probe here: open-loop injection past saturation
// legitimately reserves beyond the elapsed horizon.
#include "bench_common.hpp"
#include "check/invariant.hpp"
#include "check/probes.hpp"
#include "common/rng.hpp"
#include "cyclenet/cycle_mesh.hpp"
#include "network/emesh_model.hpp"
#include "network/synthetic.hpp"

using namespace atacsim;
using namespace atacsim::bench;

namespace {

/// Busy fraction of the "*.links" group: busy / (elapsed x channels).
double links_utilization(const std::vector<net::ChannelUsage>& usage,
                         Cycle elapsed) {
  for (const auto& ch : usage) {
    const std::string name = ch.name;
    if (name.size() >= 5 && name.substr(name.size() - 5) == "links" &&
        ch.channels && elapsed)
      return static_cast<double>(ch.busy_cycles) /
             (static_cast<double>(elapsed) * ch.channels);
  }
  return 0.0;
}

struct ModelSample {
  double latency = 0;
  double link_util = 0;
};

ModelSample cycle_model(double load, Cycle cycles) {
  cyclenet::CycleMesh cm(MachineParams::small(8, 2));
  Xoshiro256 rng(77);
  const Cycle warm = cycles / 4;
  for (Cycle t = 0; t < cycles; ++t) {
    if (t == warm) cm.reset_stats();
    for (CoreId c = 0; c < 64; ++c) {
      if (!rng.bernoulli(load)) continue;
      CoreId dst = static_cast<CoreId>(rng.next_below(63));
      if (dst >= c) ++dst;
      cm.inject(c, dst, 1, t);
    }
    cm.step();
  }
  std::vector<net::ChannelUsage> usage;
  cm.append_channel_usage(usage);
  if (check::env_validation_enabled())
    check::check_channel_usage(usage, cm.now());
  return {cm.latency().mean(), links_utilization(usage, cm.now())};
}

ModelSample flow_model(double load, Cycle cycles) {
  net::EMeshModel fm(MachineParams::small(8, 2), false);
  net::SyntheticConfig cfg;
  cfg.offered_load = load;
  cfg.bcast_fraction = 0.0;
  cfg.warmup_cycles = cycles / 4;
  cfg.measure_cycles = cycles - cycles / 4;
  cfg.seed = 77;
  const auto r = net::run_synthetic(fm, fm.geom(), cfg);
  std::vector<net::ChannelUsage> usage;
  fm.append_channel_usage(usage);
  return {r.avg_latency_cycles, links_utilization(usage, cycles)};
}

exp::report::Report run_abl_netmodel_xcheck(const exp::ExecOptions&) {
  print_header("Ablation",
               "flow-level vs cycle-accurate network model (8x8 mesh)");

  exp::report::Report rep;  // serial, on this thread: jobs 1

  Table t({"load (flits/cyc/core)", "cycle-accurate", "flow-level",
           "flow/cycle"});
  for (double load : {0.002, 0.01, 0.05, 0.10, 0.20, 0.30, 0.45}) {
    const auto ca = cycle_model(load, 20000);
    const auto fl = flow_model(load, 20000);
    t.add_row({Table::num(load, 3), Table::num(ca.latency, 1),
               Table::num(fl.latency, 1),
               Table::num(fl.latency / ca.latency, 2)});
    exp::report::Row rr;
    rr.app = "load=" + Table::num(load, 3);
    rr.config = "8x8 mesh";
    rr.stats.add("offered_load", load);
    rr.stats.add("cycle_accurate_latency", ca.latency);
    rr.stats.add("flow_level_latency", fl.latency);
    rr.stats.add("flow_over_cycle", fl.latency / ca.latency);
    rr.stats.add("cycle_link_utilization", ca.link_util);
    rr.stats.add("flow_link_utilization", fl.link_util);
    rep.rows.push_back(std::move(rr));
  }
  t.print(std::cout);
  std::printf(
      "\nReading: zero-load latencies agree within a few percent. At"
      "\nmoderate load the flow model is mildly pessimistic on latency (its"
      "\nreservation horizon has no bounded buffers); at extreme load it is"
      "\noptimistic on ultimate capacity (~20-30%%: it does not model switch"
      "\narbitration conflicts). The application studies run far below that"
      "\nregime (Fig. 6: <0.03 flits/cycle/core), where agreement is tight.\n\n");
  return rep;
}

}  // namespace

ATACSIM_BENCH("abl_netmodel_xcheck",
              "Ablation: flow model vs cycle-accurate mesh cross-check",
              run_abl_netmodel_xcheck);
