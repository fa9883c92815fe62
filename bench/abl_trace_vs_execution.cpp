// Ablation: execution-driven vs trace-driven simulation — the paper's core
// methodological claim (Sec. I): "synthetic traffic and trace-driven
// approaches do not propagate network delay back to the application".
//
// Method: run each application execution-driven on ATAC+ while capturing
// its per-core memory trace, then replay that trace open-loop (recorded
// issue gaps, no dependence on miss completion) on ATAC+, EMesh-BCast and
// EMesh-Pure. A trace-driven methodology would use the replay runtimes to
// compare the networks; the execution-driven rows show what the comparison
// should have been.
#include <algorithm>

#include "bench_common.hpp"
#include "apps/app.hpp"
#include "core/program.hpp"
#include "sim/trace.hpp"

using namespace atacsim;
using namespace atacsim::bench;

namespace {

const std::vector<std::string> kApps = {"radix", "ocean_contig", "barnes"};

struct Capture {
  sim::Trace trace;
  bool finished = false;
  std::string verify_msg;  ///< empty when the captured run verified
};

Capture capture(const std::string& app_name, const MachineParams& mp,
                double scale) {
  apps::AppConfig cfg;
  cfg.num_cores = mp.num_cores;
  cfg.scale = scale;
  auto app = apps::make_app(app_name, cfg);
  core::Program prog(mp);
  sim::TraceRecorder rec(mp.num_cores);
  prog.set_tracer(&rec);
  prog.spawn_all(app->body());
  Capture c;
  c.finished = prog.run(5'000'000'000ull).finished;
  c.verify_msg = c.finished ? app->verify() : "did not complete";
  c.trace = rec.take();
  return c;
}

Cycle replay_on(const sim::Trace& trace, const MachineParams& mp) {
  sim::Machine m(mp);
  return sim::replay_trace(m, trace).completion_cycles;
}

exp::report::Report run_abl_trace_vs_execution(const exp::ExecOptions& opt) {
  print_header("Ablation",
               "execution-driven vs trace-driven network comparison");

  // Small scale keeps the open-loop replays (which flood MSHRs) tractable.
  const double scale = std::min(bench_scale(), 0.25);

  // The execution-driven cells run as a sweep; the trace captures, then
  // the replays, run on the same exp worker pool.
  exp::sweep::CellConfig base;
  base.scenario.scale = scale;
  exp::sweep::SweepSpec spec(base);
  spec.axis(exp::sweep::apps_axis(kApps))
      .axis(exp::sweep::machine_axis({{"ATAC+", atac_plus()},
                                      {"EMesh-BCast", emesh_bcast()},
                                      {"EMesh-Pure", emesh_pure()}}));
  const auto res = exp::sweep::run_scenarios(spec, opt);

  const std::vector<MachineParams> nets = {atac_plus(), emesh_bcast(),
                                           emesh_pure()};
  std::vector<Capture> caps(kApps.size());
  exp::for_each_cell(caps.size(), opt, [&](int, std::size_t a) {
    caps[a] = capture(kApps[a], nets[0], scale);
  });
  // replays[a * nets.size() + n]: app a's trace replayed on network n.
  std::vector<double> replays(caps.size() * nets.size());
  exp::for_each_cell(replays.size(), opt,
                     [&](int, std::size_t i) {
                       replays[i] = static_cast<double>(replay_on(
                           caps[i / nets.size()].trace, nets[i % nets.size()]));
                     });

  auto rep = res.report();
  rep.rows.clear();

  Table t({"benchmark", "method", "ATAC+", "EMesh-BCast", "EMesh-Pure",
           "BCast/ATAC+", "Pure/ATAC+"});
  auto report_row = [&rep](const std::string& app, const char* method,
                           double atac, double bc, double pu) {
    exp::report::Row rr;
    rr.app = app;
    rr.config = method;
    rr.stats.add("atac_plus_cycles", atac);
    rr.stats.add("emesh_bcast_cycles", bc);
    rr.stats.add("emesh_pure_cycles", pu);
    rr.stats.add("bcast_over_atac", bc / atac);
    rr.stats.add("pure_over_atac", pu / atac);
    rep.rows.push_back(std::move(rr));
  };
  for (std::size_t ai = 0; ai < kApps.size(); ++ai) {
    const auto& app = kApps[ai];
    const double e_atac =
        static_cast<double>(res.at({ai, 0}).run.completion_cycles);
    const double e_bc =
        static_cast<double>(res.at({ai, 1}).run.completion_cycles);
    const double e_pu =
        static_cast<double>(res.at({ai, 2}).run.completion_cycles);
    t.add_row({app, "execution", Table::num(e_atac, 0), Table::num(e_bc, 0),
               Table::num(e_pu, 0), Table::num(e_bc / e_atac, 2),
               Table::num(e_pu / e_atac, 2)});
    report_row(app, "execution", e_atac, e_bc, e_pu);
    for (std::size_t n = 0; n < nets.size(); ++n)
      fold_failure(rep.rows.back(), res.at({ai, n}));

    const double r_atac = replays[ai * nets.size()];
    const double r_bc = replays[ai * nets.size() + 1];
    const double r_pu = replays[ai * nets.size() + 2];
    t.add_row({app, "trace-replay", Table::num(r_atac, 0),
               Table::num(r_bc, 0), Table::num(r_pu, 0),
               Table::num(r_bc / r_atac, 2), Table::num(r_pu / r_atac, 2)});
    report_row(app, "trace-replay", r_atac, r_bc, r_pu);
    // The replays are only as good as the captured run.
    rep.rows.back().finished = caps[ai].finished;
    rep.rows.back().verify_msg = caps[ai].verify_msg;
  }
  t.print(std::cout);
  return rep;
}

/// Whether trace replay reports a smaller `s` (a mesh-over-ATAC+ runtime
/// ratio) than execution on every app, and both values per app.
Verdict replay_under_reports(const Report& r, const char* s) {
  Verdict v{true, "replay against execution:"};
  for (const auto& app : kApps) {
    const double replay = stat(r, app, "trace-replay", s),
                 exec = stat(r, app, "execution", s);
    v.holds = v.holds && replay < exec;
    v.measured += " " + app + " " + num(replay) + " < " + num(exec) + ";";
  }
  return v;
}

// Open-loop replay issues accesses at recorded gaps, so a slower network
// cannot stall the instruction stream.
const std::vector<Claim> kClaims = {
    {"abl_trace_vs_execution: open-loop trace replay under-reports "
     "EMesh-BCast's slowdown on every app (Sec. I)",
     [](const Report& r) {
       return replay_under_reports(r, "bcast_over_atac");
     }},
    {"abl_trace_vs_execution: open-loop trace replay under-reports "
     "EMesh-Pure's slowdown on every app (Sec. I)",
     [](const Report& r) { return replay_under_reports(r, "pure_over_atac"); }},
};

}  // namespace

ATACSIM_BENCH("abl_trace_vs_execution",
              "Ablation: execution-driven vs open-loop trace replay",
              run_abl_trace_vs_execution, kClaims);
