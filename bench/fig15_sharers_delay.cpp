// Fig. 15: ATAC+ completion time as the number of ACKwise hardware sharer
// pointers k varies over {4, 8, 16, 32, 1024}.
//
// Expected shape: little monotone variation — more pointers convert
// broadcast invalidations into multiple unicasts, trading ENet contention
// near the sender for receive-hub contention (paper Sec. V-F).
#include "bench_common.hpp"

using namespace atacsim;
using namespace atacsim::bench;

namespace {

exp::report::Report run_fig15(const exp::ExecOptions& opt) {
  print_header("Figure 15", "delay vs ACKwise hardware sharers");

  const std::vector<int> ks = {4, 8, 16, 32, 1024};
  const std::vector<std::string> apps = {"radix", "barnes", "fmm",
                                         "ocean_contig", "dynamic_graph"};

  exp::sweep::CellConfig base;
  base.scenario.mp = atac_plus();
  base.scenario.scale = bench_scale();
  exp::sweep::SweepSpec spec(base);
  spec.axis(exp::sweep::apps_axis(apps))
      .axis(exp::sweep::value_axis<int>(
          "num_hw_sharers", ks,
          [](int k) { return "k=" + std::to_string(k); },
          [](exp::sweep::CellConfig& c, int k) {
            c.scenario.mp.num_hw_sharers = k;
          }));
  const auto res = exp::sweep::run_scenarios(spec, opt);
  const auto norm = res.grid([](const Outcome& o) {
                         return static_cast<double>(o.run.completion_cycles);
                       })
                        .normalized_rows(0);

  res.normalized_table(norm, 3).print(std::cout);
  std::printf(
      "\nPaper check: runtime varies little (and non-monotonically) from"
      "\nk=4 to k=1024 — ACKwise4 performs like a full-map directory.\n\n");
  return res.report();
}

}  // namespace

ATACSIM_BENCH("fig15_sharers_delay",
              "Fig. 15: completion time vs ACKwise sharer pointers k",
              run_fig15);
