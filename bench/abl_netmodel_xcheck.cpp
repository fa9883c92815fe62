// Ablation: flow-level link-reservation network model vs the cycle-accurate
// wormhole reference, on an 8x8 mesh under uniform-random traffic.
//
// The flow model is what every full-system experiment uses (a 1024-core
// cycle-accurate NoC would be ~100x slower to simulate); this ablation
// quantifies the approximation.
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
  return rep;
}

double flow_over_cycle(const Report& r, const char* load) {
  return stat(r, std::string("load=") + load, "8x8 mesh", "flow_over_cycle");
}

/// Whether flow/cycle lies in [lo, hi] at every load of `loads`, and the
/// ratios read.
Verdict ratio_within(const Report& r, std::vector<const char*> loads,
                     double lo, double hi) {
  Verdict v{true, "flow/cycle"};
  for (const char* load : loads) {
    const double x = flow_over_cycle(r, load);
    v.holds = v.holds && x >= lo && x <= hi;
    v.measured += std::string(" ") + num(x) + " at " + load;
  }
  return v;
}

const std::vector<Claim> kClaims = {
    {"abl_netmodel_xcheck: zero-load latencies agree within a few percent "
     "(flow/cycle within 5 % up to 0.01 flits/cycle/core)",
     [](const Report& r) {
       return ratio_within(r, {"0.002", "0.010"}, 0.95, 1.05);
     }},
    {"abl_netmodel_xcheck: at moderate load (0.05-0.1) the flow model is "
     "mildly pessimistic on latency (flow/cycle 1.0-1.5): its reservation "
     "horizon has no bounded buffers",
     [](const Report& r) {
       return ratio_within(r, {"0.050", "0.100"}, 1.0, 1.5);
     }},
    {"abl_netmodel_xcheck: at extreme load the flow model is optimistic on "
     "capacity (below the cycle-accurate latency at 0.45): it does not model "
     "switch arbitration conflicts",
     [](const Report& r) { return ratio_within(r, {"0.450"}, 0, 1); }},
};

}  // namespace

ATACSIM_BENCH("abl_netmodel_xcheck",
              "Ablation: flow model vs cycle-accurate mesh cross-check",
              run_abl_netmodel_xcheck, kClaims);
