// Fig. 4: application runtime on ATAC+, EMesh-BCast and EMesh-Pure
// (ACKwise4, Distance-15, StarNet — the paper's defaults). EMesh-Pure
// sends every broadcast as ~1023 serialized unicasts.
#include "bench_common.hpp"

using namespace atacsim;
using namespace atacsim::bench;

namespace {

exp::report::Report run_fig04(const exp::ExecOptions& opt) {
  print_header("Figure 4", "application runtime comparison");

  exp::sweep::CellConfig base;
  base.scenario.scale = bench_scale();
  exp::sweep::SweepSpec spec(base);
  spec.axis(exp::sweep::apps_axis(benchmarks()))
      .axis(exp::sweep::machine_axis({{"ATAC+", atac_plus()},
                                      {"EMesh-BCast", emesh_bcast()},
                                      {"EMesh-Pure", emesh_pure()}}));
  const auto res = exp::sweep::run_scenarios(spec, opt);
  const auto cycles = res.grid([](const Outcome& o) {
    return static_cast<double>(o.run.completion_cycles);
  });
  const auto norm = cycles.normalized_rows(0);
  const auto gm = norm.col_geomeans();

  Table t({"benchmark", "ATAC+ (cycles)", "EMesh-BCast", "EMesh-Pure",
           "BCast/ATAC+", "Pure/ATAC+"});
  for (std::size_t i = 0; i < benchmarks().size(); ++i) {
    t.add_row({benchmarks()[i],
               std::to_string(res.at({i, 0}).run.completion_cycles),
               std::to_string(res.at({i, 1}).run.completion_cycles),
               std::to_string(res.at({i, 2}).run.completion_cycles),
               Table::num(norm.at(i, 1), 2), Table::num(norm.at(i, 2), 2)});
  }
  t.add_row({"geomean", "-", "-", "-", Table::num(gm[1], 2),
             Table::num(gm[2], 2)});
  t.print(std::cout);
  return res.report();
}

double slowdown(const Report& r, const std::string& app,
                const std::string& net) {
  return ratio(r, app, net, "ATAC+", "completion_cycles");
}

const std::vector<Claim> kClaims = {
    {"Fig. 4: ATAC+ is the fastest network on all 8 apps",
     [](const Report& r) {
       std::string slower;
       for (const auto& app : benchmarks())
         for (const char* net : {"EMesh-BCast", "EMesh-Pure"})
           if (slowdown(r, app, net) <= 1)
             slower += " " + app + " on " + net + ",";
       return Verdict{slower.empty(), slower.empty()
                                          ? "every mesh cell is slower"
                                          : "ATAC+ not faster:" + slower};
     }},
    {"Fig. 4: EMesh-Pure's slowdown is largest on a broadcast-heavy app "
     "(dynamic_graph, radix, barnes or fmm)",
     [](const Report& r) {
       std::string worst = benchmarks()[0];
       for (const auto& app : benchmarks())
         if (slowdown(r, app, "EMesh-Pure") > slowdown(r, worst, "EMesh-Pure"))
           worst = app;
       const bool heavy = worst == "dynamic_graph" || worst == "radix" ||
                          worst == "barnes" || worst == "fmm";
       return Verdict{heavy, worst + " " +
                                 num(slowdown(r, worst, "EMesh-Pure")) + "x"};
     },
     "v4's first-touch address layout makes ocean broadcast-heavy (Fig. 5), "
     "ROADMAP \"Model v6\""},
};

}  // namespace

ATACSIM_BENCH("fig04_app_runtime",
              "Fig. 4: runtime on ATAC+ vs EMesh-BCast vs EMesh-Pure",
              run_fig04, kClaims);
