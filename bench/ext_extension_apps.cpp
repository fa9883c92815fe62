// Extension: the two additional SPLASH-2 workloads (fft, water_nsq) on the
// three networks — coverage of traffic patterns the paper's eight do not
// exercise (all-to-all transposes; fine-grained per-molecule locking).
#include "bench_common.hpp"
#include "apps/app.hpp"

using namespace atacsim;
using namespace atacsim::bench;

namespace {

exp::report::Report run_ext_extension_apps(const exp::ExecOptions& opt) {
  print_header("Extension", "fft and water_nsq across networks");

  const std::vector<std::pair<std::string, MachineParams>> machines = {
      {"ATAC+", atac_plus()},
      {"EMesh-BCast", emesh_bcast()},
      {"EMesh-Pure", emesh_pure()},
  };
  exp::sweep::CellConfig base;
  base.scenario.scale = bench_scale();
  exp::sweep::SweepSpec spec(base);
  spec.axis(exp::sweep::apps_axis(apps::extension_app_names()))
      .axis(exp::sweep::machine_axis(machines));
  const auto res = exp::sweep::run_scenarios(spec, opt);

  Table t({"benchmark", "config", "cycles", "norm to ATAC+", "EDP norm",
           "bcast recv %"});
  for (std::size_t ai = 0; ai < apps::extension_app_names().size(); ++ai) {
    const auto& app = apps::extension_app_names()[ai];
    const double base_cycles =
        static_cast<double>(res.at({ai, 0}).run.completion_cycles);
    const double base_edp = res.at({ai, 0}).edp();
    for (std::size_t mi = 0; mi < machines.size(); ++mi) {
      const auto& o = res.at({ai, mi});
      t.add_row({app, harness::config_name(machines[mi].second),
                 std::to_string(o.run.completion_cycles),
                 Table::num(o.run.completion_cycles / base_cycles, 2),
                 Table::num(o.edp() / base_edp, 2),
                 Table::num(100 * o.bcast_recv_fraction(), 1)});
    }
  }
  t.print(std::cout);
  return res.report();
}

/// `app`'s runtime on `net` over its runtime on ATAC+.
double slowdown(const Report& r, const char* app, const char* net) {
  return ratio(r, app, net, "ATAC+", "completion_cycles");
}

const std::vector<Claim> kClaims = {
    {"ext_extension_apps: the ATAC+ advantage persists outside the paper's "
     "suite (ATAC+ fastest on fft and water_nsq)",
     [](const Report& r) {
       Verdict v{true, "runtime over ATAC+:"};
       for (const char* app : {"fft", "water_nsq"})
         for (const char* net : {"EMesh-BCast", "EMesh-Pure"}) {
           v.holds = v.holds && slowdown(r, app, net) > 1;
           v.measured += std::string(" ") + app + " on " + net + " " +
                         num(slowdown(r, app, net)) + "x;";
         }
       return v;
     },
     "water_nsq finishes sooner on EMesh-BCast than on ATAC+; it is "
     "lock-bound, and each ticket-lock handoff is a broadcast invalidation; "
     "ROADMAP \"explain the three unexplained scale-1 results\""},
    {"ext_extension_apps: EMesh-Pure is slowest on fft, whose transposes "
     "turn the next phase's writes into broadcast invalidations",
     [](const Report& r) {
       const double pure = slowdown(r, "fft", "EMesh-Pure"),
                    bcast = slowdown(r, "fft", "EMesh-BCast");
       return Verdict{pure > bcast && pure > 1, "EMesh-Pure " + num(pure) +
                                                    "x, EMesh-BCast " +
                                                    num(bcast) + "x"};
     }},
    {"ext_extension_apps: lock-bound water_nsq gains a smaller factor over "
     "EMesh-Pure than fft does",
     [](const Report& r) {
       const double water = slowdown(r, "water_nsq", "EMesh-Pure"),
                    fft = slowdown(r, "fft", "EMesh-Pure");
       return Verdict{water < fft, "water_nsq " + num(water) + "x, fft " +
                                       num(fft) + "x"};
     },
     "not yet explained; water_nsq's ticket-lock handoffs are broadcast "
     "invalidations, which EMesh-Pure sends as one unicast per core, "
     "ROADMAP \"explain the three unexplained scale-1 results\""},
};

}  // namespace

ATACSIM_BENCH("ext_extension_apps",
              "Extension: fft and water_nsq across the three networks",
              run_ext_extension_apps, kClaims);
